// Package chaos is a seeded, deterministic fault-injection layer for the
// fleet/serving stack. It wraps the two seams the stack already has — the
// HTTP round trip of the fleet worker protocol (internal/fleet) and the
// disk writes of the shared cache tier (internal/cache, behind both the
// result cache and the graph artifact store) — and injects the failure
// classes a real deployment meets: dropped connections, added latency,
// 5xx responses, truncated and bit-flipped bodies in either direction,
// duplicate deliveries, torn or corrupted or missing cache files.
//
// Every decision derives via internal/seedmix from a single master seed,
// and every fault site draws a fixed number of variates per event, so a
// chaos run is parameterized by (seed, Plan) alone. Transport decisions
// come from one shared stream; a disk write's decision is a pure function
// of (seed, key, that key's write count), so which cache files are
// corrupted does not depend on goroutine interleaving. The property under
// test is the stack's headline guarantee: the merged output of a faulted
// fleet run is byte-identical to a fault-free local run (cmd/avgchaos
// drives exactly that comparison).
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"

	"avgloc/internal/seedmix"
)

// ErrInjected marks every transport failure synthesized by the injector, so
// logs and tests can tell injected faults from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// Plan is one stage of fault pressure: per-class probabilities in [0, 1]
// plus the latency bound. The zero Plan injects nothing. Plans are plain
// JSON so a soak run is reproducible from its (seed, plan) file alone.
type Plan struct {
	Name string `json:"name,omitempty"`

	// Transport faults (fleet worker protocol round trips).
	Drop         float64 `json:"drop,omitempty"`           // connection error; the request is never delivered
	Dup          float64 `json:"dup,omitempty"`            // the request is delivered twice (duplicate delivery)
	Err5xx       float64 `json:"err5xx,omitempty"`         // a synthesized 503 instead of delivery
	Latency      float64 `json:"latency,omitempty"`        // added delay before delivery
	LatencyMaxMS int     `json:"latency_max_ms,omitempty"` // delay bound (default 25ms)
	CorruptReq   float64 `json:"corrupt_req,omitempty"`    // one bit of the request body flips
	TruncateResp float64 `json:"truncate_resp,omitempty"`  // the response body is cut short
	CorruptResp  float64 `json:"corrupt_resp,omitempty"`   // one bit of the response body flips

	// Disk-write faults of the shared cache tier (cache.Tamper), for the
	// result cache and the graph artifact store alike.
	TornWrite    float64 `json:"torn_write,omitempty"`    // the file is truncated mid-write
	CorruptWrite float64 `json:"corrupt_write,omitempty"` // one bit of the file flips
	DropWrite    float64 `json:"drop_write,omitempty"`    // the file never appears
}

// Validate rejects probabilities outside [0, 1] and negative latency.
func (p *Plan) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"drop", p.Drop}, {"dup", p.Dup}, {"err5xx", p.Err5xx},
		{"latency", p.Latency}, {"corrupt_req", p.CorruptReq},
		{"truncate_resp", p.TruncateResp}, {"corrupt_resp", p.CorruptResp},
		{"torn_write", p.TornWrite}, {"corrupt_write", p.CorruptWrite},
		{"drop_write", p.DropWrite},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("chaos: plan %q: %s = %v outside [0, 1]", p.Name, f.name, f.v)
		}
	}
	if p.LatencyMaxMS < 0 {
		return fmt.Errorf("chaos: plan %q: latency_max_ms = %d negative", p.Name, p.LatencyMaxMS)
	}
	return nil
}

func (p *Plan) latencyMax() time.Duration {
	if p.LatencyMaxMS > 0 {
		return time.Duration(p.LatencyMaxMS) * time.Millisecond
	}
	return 25 * time.Millisecond
}

// Stats counts the faults actually injected, per class.
type Stats struct {
	Requests      int64 `json:"requests"`
	Drops         int64 `json:"drops"`
	Dups          int64 `json:"dups"`
	Err5xx        int64 `json:"err5xx"`
	Delays        int64 `json:"delays"`
	CorruptReqs   int64 `json:"corrupt_reqs"`
	TruncatedResp int64 `json:"truncated_resp"`
	CorruptResp   int64 `json:"corrupt_resp"`
	Writes        int64 `json:"writes"`
	TornWrites    int64 `json:"torn_writes"`
	CorruptWrites int64 `json:"corrupt_writes"`
	DroppedWrites int64 `json:"dropped_writes"`
}

// Total is the number of injected faults across every class.
func (s Stats) Total() int64 {
	return s.Drops + s.Dups + s.Err5xx + s.Delays + s.CorruptReqs +
		s.TruncatedResp + s.CorruptResp + s.TornWrites + s.CorruptWrites + s.DroppedWrites
}

// chaosSeedDomain separates the injector's PCG stream from every other
// seedmix consumer of the same master seed; writeSeedDomain does the same
// for the per-write streams.
const (
	chaosSeedDomain = 0x43414F53 // "CAOS"
	writeSeedDomain = 0x57524954 // "WRIT"
)

// Injector draws fault decisions and hands out the two hooks: an
// http.RoundTripper wrapper and a disk write tamperer (cache.Tamper). One
// Injector may serve any number of transports and stores. The transport
// stream is mutex-shared, so its decisions depend on request arrival order
// — which is fine, because the property under test (output byte-identity)
// must hold for every interleaving. Disk-write decisions are keyed instead
// (see TamperDiskWrite), so the soak's "a corrupted entry was quarantined"
// checks see the same corruptions on every run.
type Injector struct {
	mu     sync.Mutex
	seed   uint64
	rng    *rand.Rand
	plan   Plan
	stats  Stats
	writes map[string]int // disk writes seen per key
}

// New returns an injector drawing from the PCG stream derived from seed.
func New(plan Plan, seed uint64) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		seed: seed,
		rng: rand.New(rand.NewPCG(
			seedmix.Derive(seed, chaosSeedDomain, 0),
			seedmix.Derive(seed, chaosSeedDomain, 1),
		)),
		plan:   plan,
		writes: make(map[string]int),
	}, nil
}

// SetPlan switches the fault pressure (the escalation step of a soak). The
// stream position is preserved, so a multi-stage run is still a pure
// function of (seed, stage plans, event order).
func (in *Injector) SetPlan(plan Plan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	in.mu.Lock()
	in.plan = plan
	in.mu.Unlock()
	return nil
}

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// transportDecision is every choice one round trip needs, drawn up front so
// each request consumes a fixed number of stream variates regardless of
// which faults fire.
type transportDecision struct {
	drop, dup, err5xx          bool
	delay                      time.Duration
	corruptReq                 bool
	reqPos, reqBit             float64
	truncResp, corruptResp     bool
	truncPos, respPos, respBit float64
}

func (in *Injector) drawTransport() transportDecision {
	in.mu.Lock()
	defer in.mu.Unlock()
	p, r := &in.plan, in.rng
	var d transportDecision
	d.drop = r.Float64() < p.Drop
	d.dup = r.Float64() < p.Dup
	d.err5xx = r.Float64() < p.Err5xx
	if r.Float64() < p.Latency {
		d.delay = time.Duration(r.Float64() * float64(p.latencyMax()))
	}
	d.corruptReq = r.Float64() < p.CorruptReq
	d.reqPos, d.reqBit = r.Float64(), r.Float64()
	d.truncResp = r.Float64() < p.TruncateResp
	d.truncPos = r.Float64()
	d.corruptResp = r.Float64() < p.CorruptResp
	d.respPos, d.respBit = r.Float64(), r.Float64()
	in.stats.Requests++
	if d.delay > 0 {
		in.stats.Delays++
	}
	return d
}

func (in *Injector) count(f func(*Stats)) {
	in.mu.Lock()
	f(&in.stats)
	in.mu.Unlock()
}

// flipBit flips one bit of b in place, located by the unit-interval
// coordinates (pos over bytes, bit over the 8 bits). No-op on empty bodies.
func flipBit(b []byte, pos, bit float64) {
	if len(b) == 0 {
		return
	}
	i := int(pos * float64(len(b)))
	if i >= len(b) {
		i = len(b) - 1
	}
	b[i] ^= 1 << (int(bit*8) & 7)
}

// transport is the RoundTripper wrapper.
type transport struct {
	in   *Injector
	base http.RoundTripper
}

// Transport wraps base (nil = http.DefaultTransport) with the injector's
// transport fault classes. Fault order per request: drop, delay, 5xx,
// request corruption, (duplicate) delivery, response truncation/corruption.
func (in *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{in: in, base: base}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.in.drawTransport()
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.drop {
		t.in.count(func(s *Stats) { s.Drops++ })
		return nil, fmt.Errorf("%w: dropped connection (%s)", ErrInjected, req.URL.Path)
	}
	if d.err5xx {
		t.in.count(func(s *Stats) { s.Err5xx++ })
		body := `{"error":"chaos: injected 503"}`
		return &http.Response{
			StatusCode:    http.StatusServiceUnavailable,
			Status:        "503 Service Unavailable",
			Proto:         req.Proto,
			ProtoMajor:    req.ProtoMajor,
			ProtoMinor:    req.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}

	// Buffer the request body so it can be corrupted and/or replayed for a
	// duplicate delivery. Protocol bodies are bounded JSON; GETs pass nil.
	var payload []byte
	if req.Body != nil {
		var err error
		payload, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	if d.corruptReq && len(payload) > 0 {
		payload = append([]byte(nil), payload...)
		flipBit(payload, d.reqPos, d.reqBit)
		t.in.count(func(s *Stats) { s.CorruptReqs++ })
	}
	send := func() (*http.Response, error) {
		r := req.Clone(req.Context())
		if payload != nil {
			r.Body = io.NopCloser(bytes.NewReader(payload))
			r.ContentLength = int64(len(payload))
		}
		return t.base.RoundTrip(r)
	}
	if d.dup {
		// Duplicate delivery: the receiver processes the request twice
		// (idempotency is its problem); the caller sees the second response.
		t.in.count(func(s *Stats) { s.Dups++ })
		if first, err := send(); err == nil {
			io.Copy(io.Discard, first.Body)
			first.Body.Close()
		}
	}
	resp, err := send()
	if err != nil {
		return nil, err
	}
	if d.truncResp || d.corruptResp {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if d.truncResp && len(body) > 0 {
			body = body[:int(d.truncPos*float64(len(body)))]
			t.in.count(func(s *Stats) { s.TruncatedResp++ })
		}
		if d.corruptResp && len(body) > 0 {
			flipBit(body, d.respPos, d.respBit)
			t.in.count(func(s *Stats) { s.CorruptResp++ })
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
	}
	return resp, nil
}

// TamperDiskWrite is the disk-write fault hook (a cache.Tamper, passed as
// the TamperDiskWrite option of either store): torn writes (truncation),
// corrupted writes (a bit flip) and dropped writes (the file never
// appears). The cache tier's checksum must turn all three into quarantined
// (or plain) misses. The n-th write of a key draws from a stream seeded by
// (seed, key, n) alone, whichever goroutine reaches the hook first.
func (in *Injector) TamperDiskWrite(key string, raw []byte) ([]byte, bool) {
	h := fnv.New64a()
	h.Write([]byte(key))
	in.mu.Lock()
	n := in.writes[key]
	in.writes[key] = n + 1
	ws := seedmix.Derive(in.seed^h.Sum64(), writeSeedDomain, n)
	p, r := &in.plan, rand.New(rand.NewPCG(ws, seedmix.Mix64(ws)))
	torn := r.Float64() < p.TornWrite
	tornPos := r.Float64()
	corrupt := r.Float64() < p.CorruptWrite
	pos, bit := r.Float64(), r.Float64()
	drop := r.Float64() < p.DropWrite
	in.stats.Writes++
	switch {
	case drop:
		in.stats.DroppedWrites++
	case torn:
		in.stats.TornWrites++
		if corrupt {
			in.stats.CorruptWrites++
		}
	case corrupt:
		in.stats.CorruptWrites++
	}
	in.mu.Unlock()

	if drop {
		return nil, true
	}
	if torn && len(raw) > 0 {
		raw = append([]byte(nil), raw[:int(tornPos*float64(len(raw)))]...)
	}
	if corrupt && len(raw) > 0 {
		raw = append([]byte(nil), raw...)
		flipBit(raw, pos, bit)
	}
	return raw, false
}
