package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"avgloc/internal/graphstore"
	"avgloc/internal/obs"
	"avgloc/internal/registry"
	"avgloc/internal/resultstore"
	"avgloc/internal/scenario"
	"avgloc/internal/seedmix"
)

// avgserve is one running avgserve child process.
type avgserve struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan error // receives cmd.Wait's result once
}

// buildAvgserve compiles cmd/avgserve from the repository at root into
// root/.bench_build/bin and returns the binary's path.
func buildAvgserve(root string, logw io.Writer) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "avgserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/avgserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = logw, logw
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building avgserve: %w", err)
	}
	return bin, nil
}

// startAvgserve launches avgserve with the served workloads' flags, a
// fresh result-cache directory under dir, and traceDir as -trace-dir when
// non-empty, and waits until /healthz answers.
func startAvgserve(bin, dir, traceDir string) (*avgserve, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	cache, err := os.MkdirTemp(dir, "cache-")
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-workers", strconv.Itoa(nproc()), "-parallelism", "1",
		"-cache-size", "64", "-cache-dir", cache,
		// A small graph store fills during the warm-up, so the server's
		// heap is in its steady state when the measured phase starts.
		"-graph-cache-mb", "16",
	}
	if traceDir != "" {
		args = append(args, "-trace-dir", traceDir)
	}
	logf, err := os.Create(cache + ".log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting avgserve: %w", err)
	}
	s := &avgserve{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			s.stop()
			return nil, fmt.Errorf("avgserve exited during start-up (%v): %s", err, tail(logf.Name()))
		case <-time.After(100 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("avgserve not healthy after 20s: %s", tail(logf.Name()))
		}
	}
}

// stop asks avgserve to drain and waits for it to exit, killing it if it
// has not within 15 s.
func (s *avgserve) stop() error {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only once it has exited, which done reports
	select {
	case err := <-s.done:
		return err
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill() // as above
		<-s.done
		return fmt.Errorf("avgserve did not drain within 15s")
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	data, _ := os.ReadFile(path) // best effort: an error message is being built
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// serverStats is the part of avgserve's state a served workload reads:
// the /v1/metrics document plus the avg_run_seconds summary of /metrics.
type serverStats struct {
	Store struct {
		Hits      int64 `json:"hits"`
		Evictions int64 `json:"evictions"`
	} `json:"store"`
	GraphStore struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Builds int64 `json:"builds"`
	} `json:"graphstore"`
	runSum   float64
	runCount float64
}

func (lg *loadgen) stats() (*serverStats, error) {
	var st serverStats
	resp, err := lg.client.Get(lg.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	resp, err = lg.client.Get(lg.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		switch {
		case !ok:
		case name == "avg_run_seconds_sum":
			st.runSum, err = strconv.ParseFloat(val, 64)
		case name == "avg_run_seconds_count":
			st.runCount, err = strconv.ParseFloat(val, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("parsing /metrics: %w", err)
		}
	}
	return &st, sc.Err()
}

// tracedPhase replays at on lg and returns the replies with the server's
// counters before and after.
func tracedPhase(lg *loadgen, at []time.Duration, body func(int) []byte) (replies []reply, before, after *serverStats, err error) {
	if before, err = lg.stats(); err != nil {
		return nil, nil, nil, err
	}
	replies = lg.run(at, body, nil)
	if after, err = lg.stats(); err != nil {
		return nil, nil, nil, err
	}
	return replies, before, after, nil
}

// serveLayers fills the per-layer metrics both served workloads share
// from a traced phase. The generator holds at most nproc connections to a
// server with nproc workers, so requests queue on the client, never in
// avgserve's dispatch queue: loadgen.queue_wait_ms is where that wait
// shows.
func serveLayers(layers map[string]float64, replies []reply, before, after *serverStats) {
	var lag []float64
	for _, r := range replies {
		lag = append(lag, ms(r.Lag))
	}
	layers["loadgen.lag_p99_ms"] = quantile(sortedCopy(lag), 0.99)
	layers["loadgen.sent"] = float64(len(replies))
	layers["loadgen.queue_wait_ms"] = meanMS(replies, func(r *reply) time.Duration { return r.Latency - r.Lag - r.Sent })
	if runs := after.runCount - before.runCount; runs > 0 {
		layers["avgserve.run_ms_mean"] = (after.runSum - before.runSum) / runs * 1e3
	}
	layers["resultstore.hits"] = float64(after.Store.Hits - before.Store.Hits)
	layers["resultstore.evictions"] = float64(after.Store.Evictions - before.Store.Evictions)
	gHits, gMisses := after.GraphStore.Hits-before.GraphStore.Hits, after.GraphStore.Misses-before.GraphStore.Misses
	layers["graphstore.hits"] = float64(gHits)
	layers["graphstore.builds"] = float64(after.GraphStore.Builds - before.GraphStore.Builds)
	if gHits+gMisses > 0 {
		layers["graphstore.hit_ratio"] = float64(gHits) / float64(gHits+gMisses)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func meanMS(replies []reply, of func(*reply) time.Duration) float64 {
	var sum float64
	for i := range replies {
		sum += ms(of(&replies[i]))
	}
	return sum / float64(len(replies))
}

// judgePhase checks every reply of a measured phase, folds the phase into
// the end-to-end metrics and returns its outputs digest: the sha256 of the
// response digests in schedule order.
func judgePhase(res *result, replies []reply, cache string, slo time.Duration, want func(i int) [32]byte, rss []float64) string {
	var lat, lag []float64
	okWithin := 0
	h := sha256.New()
	for i := range replies {
		r := &replies[i]
		lat = append(lat, ms(r.Latency))
		lag = append(lag, ms(r.Lag))
		h.Write(r.Sum[:])
		res.Attempted++
		switch {
		case !r.ok(cache):
			res.fail("request %d: status %d, cache %q, error %v", i, r.Status, r.Cache, r.Err)
			continue
		case want != nil && want(i) != r.Sum:
			res.fail("request %d: response bytes differ from the expected outcome", i)
			continue
		}
		if r.Latency <= slo {
			okWithin++
		}
	}
	res.setE2E(lat, rss, float64(okWithin)/float64(len(replies)))
	lagP99 := quantile(sortedCopy(lag), 0.99)
	res.checkf(lagP99 <= maxLagMS, "load generator lag p99 %.2f ms exceeds %d ms: run rejected", lagP99, maxLagMS)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// maxLagMS is the largest generator lag p99 a valid open-loop run allows.
const maxLagMS = 10

// serveMix is the weighted spec mix of the served workloads.
var serveMix = []struct {
	graph  string
	params registry.Values
	alg    string
	weight int
}{
	{"regular", registry.Values{"n": 4096, "d": 6}, "mis/luby", 2},
	{"tree", registry.Values{"n": 8192}, "ruling/rand22", 1},
	{"torus", registry.Values{"rows": 64, "cols": 64}, "matching/randluby", 1},
}

const (
	mixPickDomain = 0x4D49585049434B // "MIXPICK"
	mixSeedDomain = 0x4D495853454544 // "MIXSEED"
)

// mixSpec is request i's spec: a template of serveMix drawn by weight and
// a seed of its own, both derived from (seed, i). mini divides every size
// parameter but the degree by 8.
func mixSpec(seed uint64, i int, mini bool) scenario.Spec {
	total := 0
	for _, t := range serveMix {
		total += t.weight
	}
	pick := int(seedmix.Derive(seed, mixPickDomain, i) % uint64(total))
	t := serveMix[0]
	for _, c := range serveMix {
		if pick < c.weight {
			t = c
			break
		}
		pick -= c.weight
	}
	params := t.params.Clone()
	if mini {
		for k := range params {
			if k != "d" {
				params[k] /= 8
			}
		}
	}
	return scenario.Spec{Graph: t.graph, Params: params, Algorithm: t.alg, Trials: 4, Seed: seedmix.Derive(seed, mixSeedDomain, i)}
}

func specBody(s scenario.Spec) []byte {
	data, err := json.Marshal(s)
	if err != nil {
		panic(err) // a Spec of plain fields always marshals
	}
	return data
}

// warmupOffset moves warm-up request indices away from the measured ones,
// so warm-up specs never warm the measured keys.
const warmupOffset = 1 << 30

// served is the state both served workloads share.
type served struct {
	cfg  config
	res  *result
	dir  string
	srv  *avgserve
	lg   *loadgen
	rate float64
}

func newServed(cfg config, res *result, name string, rate float64) (*served, error) {
	dir, err := os.MkdirTemp(cfg.tmp, name+"-")
	if err != nil {
		return nil, err
	}
	return &served{cfg: cfg, res: res, dir: dir, rate: rate}, nil
}

// close stops the running server and removes the workload's files.
func (s *served) close() error {
	err := s.stop()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// stop stops the running server, if any.
func (s *served) stop() error {
	if s.srv == nil {
		return nil
	}
	s.lg.close()
	err := s.srv.stop()
	s.srv = nil
	return err
}

// start starts a fresh server; traceDir, when non-empty, is its -trace-dir.
func (s *served) start(traceDir string) error {
	srv, err := startAvgserve(s.cfg.avgserve, s.dir, traceDir)
	if err != nil {
		return err
	}
	s.srv, s.lg = srv, newLoadgen(srv.base, nproc())
	return nil
}

// phase runs a measured phase: at on the server, whose peak RSS is read
// and reset once a second.
func (s *served) phase(at []time.Duration, body func(int) []byte, keep func(int) bool) ([]reply, []float64, error) {
	stop := make(chan struct{})
	done := make(chan struct{})
	var rss []float64
	var err error
	go func() {
		defer close(done)
		rss, err = sampleRSS(s.srv.cmd.Process.Pid, stop)
	}()
	replies := s.lg.run(at, body, keep)
	close(stop)
	<-done
	return replies, rss, err
}

// sampleRSS returns the peak RSS of process pid in each second until stop
// is closed (at least one window).
func sampleRSS(pid int, stop <-chan struct{}) ([]float64, error) {
	if err := resetPeakRSS(pid); err != nil {
		return nil, err
	}
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var peaks []float64
	for {
		select {
		case <-stop:
			if len(peaks) > 0 {
				return peaks, nil
			}
		case <-tick.C:
		}
		peak, err := peakRSSMB(pid)
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
		if err := resetPeakRSS(pid); err != nil {
			return nil, err
		}
	}
}

// warmup runs the warm-up phase and checks its replies.
func (s *served) warmup(body func(int) []byte, cache string) {
	d := 2 * time.Second
	if s.cfg.mini {
		d = time.Second / 2
	}
	at := poissonSchedule(seedmix.Derive(s.cfg.seed, warmupOffset, 0), s.rate, d)
	bad := 0
	for _, r := range s.lg.run(at, body, nil) {
		if !r.ok(cache) {
			bad++
		}
	}
	s.res.checkf(bad == 0, "warm-up: %d of %d requests failed", bad, len(at))
}

// traceDuration is how much of the schedule a traced phase replays.
func (cfg config) traceDuration() time.Duration {
	return min(10*time.Second, cfg.seconds)
}

// window returns the arrivals of at due before d.
func window(at []time.Duration, d time.Duration) []time.Duration {
	n := 0
	for n < len(at) && at[n] < d {
		n++
	}
	return at[:n]
}

// runServeMiss measures the cold serving path: every request carries a
// fresh seed, so avgserve builds (or hits) a graph, measures, marshals and
// writes through to its disk cache.
func runServeMiss(cfg config, res *result) (err error) {
	s, err := newServed(cfg, res, "serve-miss", 40)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()
	if err := measureSetup(cfg, res, s.stop, func() error { return s.start("") }); err != nil {
		return err
	}
	body := func(i int) []byte { return specBody(mixSpec(cfg.seed, i, cfg.mini)) }
	s.warmup(func(i int) []byte { return body(i + warmupOffset) }, "miss")
	at := poissonSchedule(cfg.seed, s.rate, cfg.seconds)
	var untraced []reply
	if cfg.trace != traceLayers1 {
		// Every 25th response is compared, after the phase, against an
		// in-process scenario.Run of the same spec.
		keep := func(i int) bool { return i%25 == 0 }
		replies, rss, err := s.phase(at, body, keep)
		if err != nil {
			return err
		}
		res.OutputsSHA256 = judgePhase(res, replies, "miss", 250*time.Millisecond, nil, rss)
		graphs, err := graphstore.New(0, "")
		if err != nil {
			return err
		}
		for i := 0; i < len(replies); i += 25 {
			spec := mixSpec(cfg.seed, i, cfg.mini)
			out, err := scenario.Run(&spec, scenario.Options{Parallelism: nproc(), Graphs: graphs})
			if err != nil {
				return err
			}
			data, err := out.MarshalStable()
			if err != nil {
				return err
			}
			res.checkf(bytes.Equal(data, replies[i].Body), "request %d: served bytes differ from scenario.Run", i)
		}
		untraced = replies
	}
	if cfg.trace == traceE2E {
		return nil
	}
	at = window(at, cfg.traceDuration())
	if untraced == nil {
		untraced = s.lg.run(at, body, nil)
		res.OutputsSHA256 = judgePhase(res, untraced, "miss", 250*time.Millisecond, nil, nil)
	}
	untraced = untraced[:len(at)]
	if err := s.stop(); err != nil {
		return err
	}
	traceDir := filepath.Join(s.dir, "trace")
	if err := s.start(traceDir); err != nil {
		return err
	}
	s.warmup(func(i int) []byte { return body(i + warmupOffset) }, "miss")
	warm, err := filepath.Glob(filepath.Join(traceDir, "*"))
	if err != nil {
		return err
	}
	for _, f := range warm {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	replies, before, after, err := tracedPhase(s.lg, at, body)
	if err != nil {
		return err
	}
	layers := make(map[string]float64)
	serveLayers(layers, replies, before, after)
	layers["trace.overhead_ratio"] = meanMS(replies, func(r *reply) time.Duration { return r.Latency })/
		meanMS(untraced, func(r *reply) time.Duration { return r.Latency }) - 1

	// avgserve's own spans give the graph, marshal and store layers, and
	// how long each request spent outside its execution (transport and
	// queue wait).
	spans, err := readServerSpans(traceDir)
	if err != nil {
		return err
	}
	execMS := make(map[string]float64)
	for _, sp := range spans {
		if sp.Name == "request" {
			execMS[sp.Run] = float64(sp.End-sp.Start) / 1e6
		}
	}
	var wait float64
	for i := range replies {
		r := &replies[i]
		exec, ok := execMS["avgserve:"+r.Key]
		res.checkf(r.ok("miss") && ok, "traced request %d: status %d, cache %q, span found %v", i, r.Status, r.Cache, ok)
		wait += ms(r.Sent) - exec
	}
	n := float64(len(replies))
	layers["avgserve.wait_ms"] = wait / n
	for l, v := range layerTimes(spans) {
		layers[l] = v / n
	}

	// The engine, validation and aggregation layers run inside avgserve's
	// scenario.row span; an in-process replay of the same specs splits it,
	// and its bytes must match what was served.
	rec := newRecorder(res.runID)
	graphs, err := graphstore.New(0, "")
	if err != nil {
		return err
	}
	rs, err := resultstore.New(64, "")
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := range replies {
		spec := mixSpec(cfg.seed, i, cfg.mini)
		_, data, err := traceSpec(rec, &spec, graphs, rs)
		if err != nil {
			return err
		}
		res.checkf(sha256.Sum256(data) == replies[i].Sum, "request %d: served bytes differ from the traced replay", i)
		layers["scenario.outcome_bytes"] += float64(len(data)) / n
	}
	replay := traceLayers(rec, time.Since(t0), len(replies))
	for _, l := range []string{"runtime.setup_ms", "runtime.rounds_frontier_ms", "runtime.rounds_blocking_ms",
		"locality.rounds_charged_ms", "core.validate_ms", "measure.aggregate_ms",
		"runtime.allocs_per_trial", "runtime.node_rounds", "runtime.messages"} {
		layers[l] = replay[l]
	}
	var accounted float64
	for l, v := range layers {
		if strings.HasSuffix(l, "_ms") && !strings.HasPrefix(l, "loadgen.") && l != "avgserve.run_ms_mean" {
			accounted += v
		}
	}
	layers["trace.accounted_ratio"] = accounted / meanMS(replies, func(r *reply) time.Duration { return r.Sent })
	res.setLayers(layers)
	res.Spans = append(spans, rec.spans...)
	return nil
}

// hitKeys is how many distinct specs serve-hit primes: four times
// avgserve's 64-entry memory LRU, so about three hits in four are served
// from the checksummed disk tier.
const hitKeys = 256

const (
	hitSpecDomain = 0x4849545350 // "HITSP": the primed specs
	hitPickDomain = 0x484954504B // "HITPK": which key each request names
)

// runServeHit measures the cached serving path: every request names one of
// hitKeys specs primed during setup, so avgserve only reads its result
// store and the engine stays idle.
func runServeHit(cfg config, res *result) (err error) {
	s, err := newServed(cfg, res, "serve-hit", 300)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()
	keys := hitKeys
	if cfg.mini {
		keys = 16
	}
	// One trial per key keeps the priming that setup_s times short; a
	// report's bytes do not grow with its trial count.
	hitSpec := func(k int) scenario.Spec {
		spec := mixSpec(seedmix.Derive(cfg.seed, hitSpecDomain, 0), k, cfg.mini)
		spec.Trials = 1
		return spec
	}
	bodies := make([][]byte, keys)
	primed := make([][]byte, keys)
	for k := range bodies {
		bodies[k] = specBody(hitSpec(k))
	}
	if err := measureSetup(cfg, res, s.stop, func() error {
		if err := s.start(""); err != nil {
			return err
		}
		replies := s.lg.run(make([]time.Duration, keys), func(k int) []byte { return bodies[k] }, func(int) bool { return true })
		for k, r := range replies {
			if !r.ok("miss") {
				return fmt.Errorf("priming key %d: status %d, cache %q, error %v", k, r.Status, r.Cache, r.Err)
			}
			if primed[k] != nil && !bytes.Equal(primed[k], r.Body) {
				return fmt.Errorf("priming key %d: bytes differ from the previous set-up", k)
			}
			primed[k] = r.Body
		}
		return nil
	}); err != nil {
		return err
	}
	pick := func(i int) int { return int(seedmix.Derive(cfg.seed, hitPickDomain, i) % uint64(keys)) }
	body := func(i int) []byte { return bodies[pick(i)] }
	want := func(i int) [32]byte { return sha256.Sum256(primed[pick(i)]) }
	s.warmup(func(i int) []byte { return body(i + warmupOffset) }, "hit")
	h := sha256.New()
	for _, p := range primed {
		h.Write(p)
	}
	res.OutputsSHA256 = fmt.Sprintf("%x", h.Sum(nil))

	at := poissonSchedule(cfg.seed, s.rate, cfg.seconds)
	var untraced []reply
	if cfg.trace != traceLayers1 {
		replies, rss, err := s.phase(at, body, nil)
		if err != nil {
			return err
		}
		judgePhase(res, replies, "hit", 20*time.Millisecond, want, rss)
		untraced = replies
	}
	if cfg.trace == traceE2E {
		return nil
	}
	at = window(at, cfg.traceDuration())
	if untraced == nil {
		untraced = s.lg.run(at, body, nil)
		judgePhase(res, untraced, "hit", 20*time.Millisecond, want, nil)
	}
	untraced = untraced[:len(at)]
	// avgserve writes no spans for cache hits, so the traced phase runs
	// on the same server and reads its counters instead.
	replies, before, after, err := tracedPhase(s.lg, at, body)
	if err != nil {
		return err
	}
	layers := make(map[string]float64)
	serveLayers(layers, replies, before, after)
	sent := meanMS(replies, func(r *reply) time.Duration { return r.Sent })
	layers["trace.overhead_ratio"] = meanMS(replies, func(r *reply) time.Duration { return r.Latency })/
		meanMS(untraced, func(r *reply) time.Duration { return r.Latency }) - 1
	for i := range replies {
		res.checkf(replies[i].ok("hit") && replies[i].Sum == want(i), "traced request %d: not the primed bytes", i)
	}

	// The result store's read cost: the same request sequence against an
	// in-process store of avgserve's shape (64 entries over a disk tier)
	// primed with the same outcomes.
	rs, err := resultstore.New(64, filepath.Join(s.dir, "replay"))
	if err != nil {
		return err
	}
	keyOf := make([]string, keys)
	for k := range primed {
		spec := hitSpec(k)
		if keyOf[k], err = spec.Key(); err != nil {
			return err
		}
		if err := rs.Put(keyOf[k], primed[k]); err != nil {
			return err
		}
	}
	rec := newRecorder(res.runID)
	for i := range replies {
		end := rec.begin("resultstore.get")
		data, ok := rs.Get(keyOf[pick(i)])
		end()
		res.checkf(ok && bytes.Equal(data, primed[pick(i)]), "replayed get %d: not the primed bytes", i)
		layers["scenario.outcome_bytes"] += float64(len(data)) / float64(len(replies))
	}
	get := layerTimes(rec.spans)["resultstore.get_ms"] / float64(len(replies))
	layers["resultstore.get_ms"] = get
	layers["avgserve.wait_ms"] = sent - get
	layers["trace.accounted_ratio"] = (layers["avgserve.wait_ms"] + get) / sent
	res.setLayers(layers)
	res.Spans = rec.spans
	return nil
}

// readServerSpans folds the span lines of every avgserve trace artifact in
// dir into Spans; each artifact is one run, named by its result key.
func readServerSpans(dir string) ([]Span, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.trace.ndjson"))
	if err != nil {
		return nil, err
	}
	var spans []Span
	for _, f := range files {
		run := "avgserve:" + strings.TrimSuffix(filepath.Base(f), ".trace.ndjson")
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var l obs.Line
			if err := json.Unmarshal(line, &l); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			if l.Type != "span" {
				continue
			}
			spans = append(spans, Span{
				Run: run, ID: int(l.ID), Parent: int(l.Parent), Name: l.Name,
				Start: l.AtUS * 1e3, End: (l.AtUS + l.DurUS) * 1e3,
			})
		}
	}
	return spans, nil
}
