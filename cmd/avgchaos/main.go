// Command avgchaos is the chaos soak: it runs a small worker fleet against
// an in-process coordinator under an escalating, seeded fault plan
// (internal/chaos) and proves the stack's headline guarantee under fire —
// the merged campaign report of a faulted fleet run is byte-identical to a
// fault-free local run.
//
// Usage:
//
//	avgchaos -seed 1 -out /tmp/soak.a
//	avgchaos -seed 1 -out /tmp/soak.b && cmp /tmp/soak.a /tmp/soak.b
//
// Each stage escalates the fault pressure: injected latency, dropped
// connections, synthesized 503s, duplicated deliveries, bit-flipped and
// truncated bodies on the worker protocol, plus torn/corrupted/dropped
// writes on the shared chunk cache AND on the workers' shared graph
// artifact store (internal/graphstore). The final stage additionally
// SIGTERM-drains one worker mid-run (context cancellation — the same path
// cmd/avgworker takes on a real SIGTERM). Every stage runs three ways:
//
//  1. a fault-free local reference (campaign.Run, no fleet, no store),
//  2. a fleet pass under the stage's plan (cold chunk cache),
//  3. a fleet replay (warm chunk cache: clean entries serve, corrupted
//     entries quarantine and re-execute),
//  4. a local disk replay through the workers' graph store with its memory
//     tier emptied, so every graph artifact the stage wrote is read back
//     (corrupted artifacts quarantine and rebuild).
//
// All four must produce byte-identical MarshalStable reports, every
// transport and disk fault class must actually fire, at least one
// corrupted cache entry must be quarantined, and at least one corrupted
// graph artifact must be quarantined and rebuilt byte-identically —
// otherwise the soak exits 1.
// -out writes the concatenated per-stage report bytes; running twice with
// the same seed and cmp-ing the files proves the soak itself replays.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"avgloc/internal/campaign"
	"avgloc/internal/chaos"
	"avgloc/internal/fleet"
	"avgloc/internal/graphstore"
	"avgloc/internal/obs"
	"avgloc/internal/registry"
	"avgloc/internal/resultstore"
	"avgloc/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "avgchaos:", err)
		os.Exit(1)
	}
}

// stage pairs a fault plan with whether this stage drains a worker mid-run.
type stage struct {
	plan  chaos.Plan
	drain bool
}

// stages escalate from a fault-free sanity pass to every class at once.
// Probabilities are high enough that each class fires many times over a
// soak, low enough that retry budgets rarely exhaust (and when they do,
// local fallback keeps the bytes identical anyway — that is the point).
func stages() []stage {
	return []stage{
		{plan: chaos.Plan{Name: "calm"}},
		{plan: chaos.Plan{Name: "breeze",
			Latency: 0.5, LatencyMaxMS: 4, Dup: 0.15, Err5xx: 0.10}},
		{plan: chaos.Plan{Name: "squall",
			Drop: 0.12, Dup: 0.10, Err5xx: 0.12, Latency: 0.3, LatencyMaxMS: 4,
			CorruptReq: 0.12, TruncateResp: 0.10, CorruptResp: 0.10,
			TornWrite: 0.20, CorruptWrite: 0.20, DropWrite: 0.20}},
		{plan: chaos.Plan{Name: "storm",
			Drop: 0.18, Dup: 0.15, Err5xx: 0.15, Latency: 0.3, LatencyMaxMS: 4,
			CorruptReq: 0.15, TruncateResp: 0.15, CorruptResp: 0.15,
			TornWrite: 0.25, CorruptWrite: 0.25, DropWrite: 0.25},
			drain: true},
	}
}

// soakCampaign builds the per-stage workload. Spec seeds differ per stage
// so every stage exercises the dispatch path instead of the previous
// stage's chunk cache; they are a pure function of (seed, stage), keeping
// the whole soak replayable. The graphs are random trees, not cycles, on
// purpose: a Random family's artifact key includes the row seed pair, so
// every stage writes fresh graph artifacts through the tampered disk hook
// instead of reusing the calm stage's files — the graph-store quarantine
// path stays under fire all soak long.
func soakCampaign(seed uint64, si, trials int) *campaign.Campaign {
	specSeed := func(i int) uint64 { return seed*1000 + uint64(si)*10 + uint64(i) }
	return &campaign.Campaign{
		Name: fmt.Sprintf("chaos-stage-%d", si),
		Scenarios: []campaign.Item{
			{
				Name: "luby-sweep",
				Spec: scenario.Spec{
					Graph: "tree", Algorithm: "mis/luby", Trials: trials, Seed: specSeed(0),
					Sweep: &scenario.Sweep{Param: "n", Values: []float64{24, 40, 56}},
				},
				Hypothesis: &campaign.Hypothesis{Measure: campaign.MeasureNodeAvg, Expect: "log"},
			},
			{
				Name: "luby-point",
				Spec: scenario.Spec{
					Graph: "tree", Params: map[string]float64{"n": 40},
					Algorithm: "mis/luby", Trials: trials, Seed: specSeed(1),
				},
			},
		},
	}
}

func run() error {
	seed := flag.Uint64("seed", 1, "master seed for the fault stream and all spec seeds; equal seeds replay the soak")
	outPath := flag.String("out", "", "write the concatenated per-stage report bytes here (cmp across invocations)")
	trials := flag.Int("trials", 6, "trials per scenario (chunked at 2 per lease)")
	nWorkers := flag.Int("workers", 3, "fleet workers")
	tracePath := flag.String("trace", "", "write a flight-recorder trace artifact (NDJSON, read with avgtrace) covering every stage's fleet passes")
	flag.Parse()

	// The flight recorder sees the whole soak: per-stage root spans plus the
	// coordinator's chunk lease/steal/complete events and the workers' exec
	// spans, all in one artifact. Tracing never changes the report bytes —
	// the byte-identity checks below run with it armed.
	var tracer *obs.Tracer
	if *tracePath != "" {
		var err error
		if tracer, err = obs.Create(*tracePath, "avgchaos", obs.A("seed", *seed)); err != nil {
			return err
		}
		defer func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "avgchaos: closing trace: %v\n", err)
			}
			fmt.Fprintf(os.Stderr, "trace: %d lines -> %s (inspect: avgtrace %s)\n", tracer.Lines(), *tracePath, *tracePath)
		}()
	}

	inj, err := chaos.New(chaos.Plan{}, *seed)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "avgchaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Capacity 2 keeps almost every chunk out of memory, so the warm replay
	// reads disk — the layer the fault plan tampers with.
	store, err := resultstore.NewWithOptions(2, dir, resultstore.Options{TamperDiskWrite: inj.TamperDiskWrite})
	if err != nil {
		return err
	}
	// The workers' shared graph store writes through the same tampered disk.
	// A 4 KiB memory budget holds one or two of the soak's ~2 KiB tree
	// graphs — small enough that sweep revisits and warm replays fall
	// through to the disk tier (the layer the plan corrupts), while the
	// disk cap (16x) still retains every artifact. A quarantined artifact
	// rebuilds deterministically; the byte-identity checks below prove the
	// rebuild is exact.
	gstore, err := graphstore.NewWithOptions(4096, dir+"/graphs", graphstore.Options{TamperDiskWrite: inj.TamperDiskWrite})
	if err != nil {
		return err
	}
	coord := fleet.NewCoordinator(fleet.Config{
		ChunkTrials:      2,
		HeartbeatTimeout: time.Second,
		StealAfter:       300 * time.Millisecond,
		PollInterval:     20 * time.Millisecond,
		Store:            store,
		Trace:            tracer,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// Every worker's protocol traffic flows through the injector's
	// transport; each worker gets its own cancel so the storm stage can
	// drain one mid-run.
	cancels := make([]context.CancelFunc, *nWorkers)
	var wg sync.WaitGroup
	for i := 0; i < *nWorkers; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		w := &fleet.Worker{
			Base:        base,
			Name:        fmt.Sprintf("chaos-%d", i),
			Parallelism: 2,
			Poll:        5 * time.Millisecond,
			Seed:        *seed + uint64(i) + 1,
			DrainGrace:  5 * time.Second,
			Client:      &http.Client{Transport: inj.Transport(nil)},
			Graphs:      gstore,
			Trace:       tracer,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
		wg.Wait()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for coord.Workers() < *nWorkers {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d workers registered", coord.Workers(), *nWorkers)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var out bytes.Buffer
	for si, st := range stages() {
		if err := inj.SetPlan(st.plan); err != nil {
			return err
		}
		c := soakCampaign(*seed, si, *trials)
		ref, err := campaign.Run(c, campaign.Options{Parallelism: 2})
		if err != nil {
			return fmt.Errorf("stage %s: reference run: %w", st.plan.Name, err)
		}
		refBytes, err := ref.MarshalStable()
		if err != nil {
			return err
		}
		if st.drain {
			// The same path a real SIGTERM takes in cmd/avgworker: the
			// worker finishes and uploads its chunk in flight, then
			// deregisters; its siblings absorb the rest of the run.
			go func() {
				time.Sleep(150 * time.Millisecond)
				fmt.Fprintf(os.Stderr, "stage %s: draining worker 0 mid-run\n", st.plan.Name)
				cancels[0]()
			}()
		}
		stageSpan := tracer.Span(nil, "chaos.stage", obs.A("stage", st.plan.Name), obs.A("drain", st.drain))
		cold, err := fleetPass(c, coord, stageSpan, "cold")
		if err != nil {
			stageSpan.End(obs.A("error", err.Error()))
			return fmt.Errorf("stage %s: fleet pass: %w", st.plan.Name, err)
		}
		warm, err := fleetPass(c, coord, stageSpan, "warm")
		stageSpan.End()
		if err != nil {
			return fmt.Errorf("stage %s: warm replay: %w", st.plan.Name, err)
		}
		if !bytes.Equal(cold, refBytes) {
			return fmt.Errorf("stage %s: fleet bytes differ from fault-free local bytes\nfleet:\n%s\nlocal:\n%s",
				st.plan.Name, cold, refBytes)
		}
		if !bytes.Equal(warm, refBytes) {
			return fmt.Errorf("stage %s: warm-replay bytes differ from fault-free local bytes", st.plan.Name)
		}
		// Which graphs the fleet passes re-read from disk, rather than from
		// memory, depends on scheduling. A graph larger than gstore's 4 KiB
		// budget evicts every other one (the LRU keeps only its newest
		// entry), so this pass reads every artifact of the stage back from
		// disk and the graph quarantine check below sees each corrupted
		// write on every run.
		if _, err := gstore.Get(context.Background(), "cycle", registry.Values{"n": 128}, 0, 0); err != nil {
			return err
		}
		disk, err := campaign.Run(c, campaign.Options{Parallelism: 2, Graphs: gstore})
		if err != nil {
			return fmt.Errorf("stage %s: disk replay: %w", st.plan.Name, err)
		}
		diskBytes, err := disk.MarshalStable()
		if err != nil {
			return err
		}
		if !bytes.Equal(diskBytes, refBytes) {
			return fmt.Errorf("stage %s: disk-replay bytes differ from fault-free local bytes", st.plan.Name)
		}
		fmt.Fprintf(os.Stderr, "stage %s: ok (fleet == warm replay == disk replay == local, %d bytes)\n", st.plan.Name, len(cold))
		fmt.Fprintf(&out, "== stage %s ==\n", st.plan.Name)
		out.Write(cold)
	}

	// The comparison only means something if the faults actually fired.
	cs := inj.Stats()
	missing := ""
	for _, f := range []struct {
		name string
		n    int64
	}{
		{"drops", cs.Drops}, {"dups", cs.Dups}, {"err5xx", cs.Err5xx},
		{"delays", cs.Delays}, {"corrupt_reqs", cs.CorruptReqs},
		{"truncated_resp", cs.TruncatedResp}, {"corrupt_resp", cs.CorruptResp},
		{"torn_writes", cs.TornWrites}, {"corrupt_writes", cs.CorruptWrites},
		{"dropped_writes", cs.DroppedWrites},
	} {
		if f.n == 0 {
			missing += " " + f.name
		}
	}
	ss := store.Stats()
	gs := gstore.Stats()
	fs := coord.Stats()
	chaosJSON, _ := json.Marshal(cs)
	fmt.Fprintf(os.Stderr, "chaos: %s\n", chaosJSON)
	fmt.Fprintf(os.Stderr, "store: quarantined=%d hits=%d misses=%d\n", ss.Quarantined, ss.Hits, ss.Misses)
	fmt.Fprintf(os.Stderr, "graphstore: builds=%d loads=%d quarantined=%d hits=%d misses=%d evictions=%d\n",
		gs.Builds, gs.Loads, gs.Quarantined, gs.Hits, gs.Misses, gs.Evictions)
	fmt.Fprintf(os.Stderr, "fleet: dispatched=%d completed=%d cached=%d retried=%d stolen=%d duplicate=%d failed=%d\n",
		fs.ChunksDispatched, fs.ChunksCompleted, fs.ChunksCached, fs.ChunksRetried, fs.ChunksStolen, fs.ChunksDuplicate, fs.ChunksFailed)
	if missing != "" {
		return fmt.Errorf("fault classes never fired:%s (raise probabilities or traffic)", missing)
	}
	if ss.Quarantined == 0 {
		return fmt.Errorf("no corrupted cache entry was quarantined — the disk fault path went unexercised")
	}
	if gs.Quarantined == 0 {
		return fmt.Errorf("no corrupted graph artifact was quarantined — the graph-store disk fault path went unexercised")
	}
	if gs.Builds == 0 || gs.Loads == 0 {
		return fmt.Errorf("graph store never exercised both tiers (builds=%d loads=%d)", gs.Builds, gs.Loads)
	}
	if fs.ChunksCached == 0 {
		return fmt.Errorf("warm replay served nothing from the chunk cache")
	}

	if *outPath != "" {
		if err := os.WriteFile(*outPath, out.Bytes(), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("avgchaos: %d stages byte-identical under %d injected faults (%d quarantined chunk files, %d quarantined graph artifacts)\n",
		len(stages()), cs.Total(), ss.Quarantined, gs.Quarantined)
	return nil
}

// fleetPass runs the campaign through the coordinator and returns its
// stable report bytes. The pass span (a child of the stage span) parents
// the campaign/fleet spans via the context.
func fleetPass(c *campaign.Campaign, coord *fleet.Coordinator, stage *obs.Span, pass string) ([]byte, error) {
	span := stage.Span("chaos.pass", obs.A("pass", pass))
	rep, err := campaign.Run(c, campaign.Options{
		Parallelism: 2,
		Execute:     coord.Execute,
		Ctx:         obs.With(context.Background(), span),
	})
	if err != nil {
		span.End(obs.A("error", err.Error()))
		return nil, err
	}
	span.End()
	return rep.MarshalStable()
}
