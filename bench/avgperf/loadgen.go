package main

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"
)

// scheduleStream is the PCG stream of arrival schedules.
const scheduleStream = 0x4C4F4144 // "LOAD"

// poissonSchedule returns the offsets of Poisson arrivals at rate per
// second over duration. It is a pure function of its arguments, so a
// traced replay can resend exactly the requests of a measured phase.
func poissonSchedule(seed uint64, rate float64, duration time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, scheduleStream))
	var at []time.Duration
	for t := rng.ExpFloat64() / rate; t < duration.Seconds(); t += rng.ExpFloat64() / rate {
		at = append(at, time.Duration(t*float64(time.Second)))
	}
	return at
}

// reply is what one scheduled request saw.
type reply struct {
	Lag     time.Duration // dispatch time minus due time: how late the generator ran
	Latency time.Duration // response end minus due time
	Sent    time.Duration // response end minus the moment the request was sent
	Status  int
	Cache   string // X-Avgserve-Cache
	Key     string // X-Avgserve-Key
	Sum     [32]byte
	Body    []byte // kept only where asked
	Err     error
}

// ok reports whether the request got a 200 answer with the wanted cache
// header.
func (r *reply) ok(cache string) bool {
	return r.Err == nil && r.Status == http.StatusOK && r.Cache == cache
}

// loadgen is an open-loop client: requests leave on their schedule
// whatever the server's state, over at most conns connections, so a stall
// shows as latency on every request due behind it.
type loadgen struct {
	base   string
	conns  int
	client *http.Client
}

func newLoadgen(base string, conns int) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadgen{base: base, conns: conns, client: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// run posts body(i) to /v1/run at start+at[i] for every i and returns the
// replies in schedule order; keep(i) says whether reply i keeps its body.
func (lg *loadgen) run(at []time.Duration, body func(i int) []byte, keep func(i int) bool) []reply {
	type job struct {
		i   int
		due time.Time
		lag time.Duration
	}
	replies := make([]reply, len(at))
	jobs := make(chan job, len(at)) // sized to the number of sends: dispatch never blocks
	var wg sync.WaitGroup
	for w := 0; w < lg.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r := lg.post(body(j.i), keep != nil && keep(j.i))
				r.Lag, r.Latency = j.lag, time.Since(j.due)
				replies[j.i] = r
			}
		}()
	}
	start := time.Now()
	for i, d := range at {
		due := start.Add(d)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{i: i, due: due, lag: time.Since(due)}
	}
	close(jobs)
	wg.Wait()
	return replies
}

func (lg *loadgen) post(body []byte, keep bool) reply {
	sent := time.Now()
	resp, err := lg.client.Post(lg.base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	r := reply{
		Sent:   time.Since(sent),
		Status: resp.StatusCode,
		Cache:  resp.Header.Get("X-Avgserve-Cache"),
		Key:    resp.Header.Get("X-Avgserve-Key"),
		Sum:    sha256.Sum256(data),
		Err:    err,
	}
	if keep {
		r.Body = data
	}
	return r
}
