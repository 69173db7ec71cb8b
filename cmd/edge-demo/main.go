// Command edge-demo runs the networked edge system live: it spins up N
// in-process workers on loopback TCP, computes a DCTA allocation on the
// green-building scenario, streams the plan over the wire, and reports when
// the industry decision became ready — the paper's PT, measured on real
// sockets instead of the discrete-event simulator.
//
//	edge-demo -workers 5 -timescale 0.001
//	edge-demo -hang-worker 2           # worker 2's link freezes mid-run
//	edge-demo -corrupt-rate 0.1        # 10% of completion frames corrupted
//
// Workers beat every 50 ms, so the controller tells a hung worker from a
// computing one. The fault flags route the affected workers through an
// in-process fault-injection proxy (internal/netfault); the controller
// detects the damage — missed heartbeats, checksum failures — and completes
// the plan anyway. Every run reports the controller's failure counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"time"

	"repro"
	"repro/internal/edgenet"
	"repro/internal/edgesim"
	"repro/internal/netfault"
)

func main() {
	var (
		workers   = flag.Int("workers", 5, "number of loopback workers")
		timescale = flag.Float64("timescale", 0.001, "execution time scale (1 = real time)")
		method    = flag.String("alloc", "DCTA", "allocator: RM, DML, CRL, DCTA")
		seed      = flag.Int64("seed", 1, "experiment seed")
		scale     = flag.String("scale", "default", "scenario scale: fast, default, full")
		hang      = flag.Int("hang-worker", 0, "freeze this worker's link (1-based) on its first completion")
		corrupt   = flag.Float64("corrupt-rate", 0, "probability of corrupting each completion frame in flight")
	)
	flag.Parse()
	if err := run(os.Stdout, demoOptions{
		Workers:     *workers,
		TimeScale:   *timescale,
		Method:      *method,
		Seed:        *seed,
		Scale:       *scale,
		HangWorker:  *hang,
		CorruptRate: *corrupt,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "edge-demo:", err)
		os.Exit(1)
	}
}

// demoOptions parameterizes one demo run (flag values; tests fill it
// directly).
type demoOptions struct {
	Workers   int
	TimeScale float64
	Method    string
	Seed      int64
	Scale     string
	// HangWorker freezes the link of the given worker (1-based) on its
	// first completion frame; 0 injects no hang.
	HangWorker int
	// CorruptRate is the per-completion-frame probability of a byte flip in
	// flight (detectable: the frame checksum goes stale).
	CorruptRate float64
}

func run(out io.Writer, opt demoOptions) error {
	if opt.HangWorker < 0 || opt.HangWorker > opt.Workers {
		return fmt.Errorf("-hang-worker %d out of range (1..%d)", opt.HangWorker, opt.Workers)
	}
	if opt.CorruptRate < 0 || opt.CorruptRate > 1 {
		return fmt.Errorf("-corrupt-rate %v out of range (0..1)", opt.CorruptRate)
	}
	if !(opt.TimeScale >= 0) || math.IsInf(opt.TimeScale, 1) {
		return fmt.Errorf("-timescale %v out of range (finite, ≥ 0)", opt.TimeScale)
	}
	if opt.Scale == "" {
		opt.Scale = "default"
	}
	cfg, err := dcta.ScaledScenarioConfig(opt.Seed, opt.Scale)
	if err != nil {
		return err
	}
	cfg.Workers = opt.Workers
	fmt.Fprintf(out, "building scenario (%d workers)...\n", opt.Workers)
	s, err := dcta.NewScenario(cfg)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	// The workers run the same hardware mix as the simulator. A task whose
	// modelled time does not fit a time.Duration would never end.
	cycle := []edgesim.NodeType{
		edgesim.RaspberryPiAPlus, edgesim.RaspberryPiB, edgesim.RaspberryPiBPlus,
	}
	for _, bits := range s.InputBits {
		for _, typ := range cycle[:min(opt.Workers, len(cycle))] {
			if !(bits*typ.SecPerBit()*opt.TimeScale*float64(time.Second) < math.MaxInt64) {
				return fmt.Errorf("-timescale %v out of range: a %.0f-bit task on a %s would outlast a time.Duration", opt.TimeScale, bits, typ)
			}
		}
	}
	allocators, err := s.Allocators()
	if err != nil {
		return err
	}
	a, ok := allocators[opt.Method]
	if !ok {
		return fmt.Errorf("unknown allocator %q", opt.Method)
	}
	req, err := s.RequestFor(s.Eval[0])
	if err != nil {
		return err
	}
	res, err := a.Allocate(req)
	if err != nil {
		return err
	}

	addrs := make([]string, opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		w := &edgenet.Worker{
			ID:             i + 1,
			Type:           cycle[i%len(cycle)],
			TimeScale:      opt.TimeScale,
			HeartbeatEvery: 50 * time.Millisecond,
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listen worker %d: %w", i, err)
		}
		if err := w.Serve(l); err != nil {
			return fmt.Errorf("serve worker %d: %w", i, err)
		}
		defer w.Close()
		addrs[i] = w.Addr()
		note := ""
		if decide := faultDecider(opt, w.ID); decide != nil {
			proxy, err := netfault.New(w.Addr(), decide, nil)
			if err != nil {
				return fmt.Errorf("fault proxy for worker %d: %w", i, err)
			}
			defer proxy.Close()
			addrs[i] = proxy.Addr()
			note = " [faulty link]"
		}
		fmt.Fprintf(out, "worker %d (%s) listening on %s%s\n", w.ID, w.Type, addrs[i], note)
	}

	fmt.Fprintf(out, "\nstreaming the %s plan over TCP...\n", opt.Method)
	ctrl := edgenet.NewController()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	start := time.Now()
	report, err := ctrl.Run(ctx, addrs, req.Problem, res, s.Config.CoverageTarget)
	if err != nil {
		return fmt.Errorf("controller run: %w", err)
	}
	// The controller returns at the decision instant, abandoning the tasks
	// still executing, so this counts the tasks done by then.
	fmt.Fprintf(out, "\n%d tasks completed over the wire by the decision instant, run ended after %v\n",
		len(report.Completions), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(out, "decision ready at %v (%.0f%% importance coverage; covered %.4f)\n",
		report.DecisionReadyAt.Round(10*time.Microsecond),
		s.Config.CoverageTarget*100, report.Covered)
	if sim, err := edgesim.Simulate(s.Cluster, req.Problem, res, s.Config.CoverageTarget); err == nil {
		model := time.Duration(sim.ProcessingTime * opt.TimeScale * float64(time.Second))
		fmt.Fprintf(out, "edgesim model of the same plan: decision ready at %v (its PT × timescale, including the shared WiFi channel, which the live run does not emulate)\n",
			model.Round(10*time.Microsecond))
	}
	for _, comp := range report.Completions[:min(5, len(report.Completions))] {
		fmt.Fprintf(out, "  task %2d on worker %d at %v (importance %.4f)\n",
			comp.Task, comp.WorkerID, comp.At.Round(10*time.Microsecond), comp.Importance)
	}
	if len(report.Completions) > 5 {
		fmt.Fprintf(out, "  … %d more\n", len(report.Completions)-5)
	}
	fmt.Fprintf(out, "robustness: %d heartbeat misses, %d dead workers, %d hedges, %d retries, %d corrupt frames, %d duplicate completions\n",
		report.HeartbeatMisses, report.DeadWorkers, report.Hedges,
		report.Retries, report.CorruptFrames, report.DuplicateDone)
	return nil
}

// faultDecider builds the netfault policy for one worker's link, or nil for
// a clean link. The corruption draw is seeded per worker, so a given seed
// injects a reproducible fault pattern.
func faultDecider(opt demoOptions, workerID int) netfault.Decider {
	hang := opt.HangWorker == workerID
	var rng *rand.Rand
	if opt.CorruptRate > 0 {
		rng = rand.New(rand.NewSource(opt.Seed + int64(workerID)))
	}
	if !hang && rng == nil {
		return nil
	}
	return func(i int, env *edgenet.Envelope) netfault.Action {
		if env == nil || env.Type != edgenet.MsgDone {
			return netfault.Pass
		}
		if hang {
			return netfault.Hang
		}
		if rng != nil && rng.Float64() < opt.CorruptRate {
			return netfault.Corrupt
		}
		return netfault.Pass
	}
}
