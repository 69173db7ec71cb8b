// Command bench is the allocation service's benchmark: five named workloads
// driven through the real stack over loopback sockets, every answer
// validated, every metric printed by name with its unit. See README.md.
//
// The driver's contract (BENCHMARK.json) runs one workload at a time:
//
//	bash bench/run.sh --workload warm_crl --seed 1 --seconds 10 --trace 0
//
// and reads the last line of standard output. By hand, from bench/:
//
//	go run . -all [-seed N] [-out A.json]   every workload, timed + traced
//	go run . -compare A.json B.json         judge B against A by the bounds
//	go run . -smoke                         1 s per workload, small world
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's result line")
		seed     = flag.Int64("seed", 1, "workload seed: the request streams derive from it")
		seconds  = flag.Float64("seconds", 10, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics (traced run), 0 the end-to-end metrics")
		all      = flag.Bool("all", false, "run every workload, timed and traced, and print every metric")
		smoke    = flag.Bool("smoke", false, "like -all on the small world with 1 s windows")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		out      = flag.String("out", "", "with -all: also write the results to this file")
		clients  = flag.Int("clients", 0, "closed-loop clients (default: the workload's, min(nproc, 2))")
		hostOf   = flag.String("host", "", "internal: serve as the SUT host of this workload")
		outDir   = flag.String("trace-dir", defaultTraceDir(), "directory the traced run writes its spans to")
	)
	flag.Parse()
	var err error
	switch {
	case *hostOf != "":
		err = hostMain(*hostOf, *smoke)
	case *compare:
		err = compareMain(flag.Args())
	case *all || *smoke:
		err = allMain(*seed, *seconds, *clients, *smoke, *out, *outDir)
	case *workload != "":
		err = driverMain(*workload, *seed, *seconds, *clients, *trace == 1, *outDir)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultTraceDir is bench/out, whether the command runs from the repository
// root (the driver, run.sh) or from bench/ (go run .).
func defaultTraceDir() string {
	if _, err := os.Stat("bench/sut.go"); err == nil {
		return "bench/out"
	}
	return "out"
}

// traceWindowSeconds caps the timed window of a driver run that reports the
// per-layer metrics: there it only feeds counters and the medians the trace
// is compared against.
const traceWindowSeconds = 3

// driverLine is the contract's result line.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverMain(name string, seed int64, seconds float64, clients int, traced bool, outDir string) error {
	spec, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	w, err := buildWorld(spec.World)
	if err != nil {
		return err
	}
	cfg := runConfig{Spec: spec, Seed: seed, Seconds: seconds, Clients: clients, Setups: setupRepeats}
	if traced {
		cfg.Setups = 1
		cfg.Seconds = min(seconds, traceWindowSeconds)
		cfg.TraceDir = outDir
	}
	res, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	line := driverLine{
		// A degraded answer is valid, but it means the policy path gave up:
		// a run in which more than the allowed share took the fast fallback
		// measured something else than the workload, and is not correct.
		Correct:   res.Failed == 0 && res.Metrics["degraded_rate"] <= specOf("degraded_rate").Bound,
		Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]driverValue{},
	}
	if traced {
		// Every workload reports every per-layer metric; one that is not on
		// this workload's path, or does not apply to it, reads 0.
		for _, m := range metricsOfTier(tierEndToEnd, tierLayer) {
			line.Metrics[m.Name] = driverValue{Value: res.Metrics[m.Name], Unit: m.Unit}
		}
	} else {
		for _, m := range metricsOfTier(tierGated) {
			v, ok := res.Metrics[m.Name]
			if !ok {
				return fmt.Errorf("%s: no value for %s (%d valid allocates)", name, m.Name, res.Samples["alloc_rps"])
			}
			line.Metrics[m.Name] = driverValue{Value: v, Unit: m.Unit}
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "bench: failed:", f)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", enc)
	return nil
}

// stamp records where and from what a result file was measured.
type stamp struct {
	GoVersion    string `json:"go_version"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Commit       string `json:"commit"`
	WorldSeed    int64  `json:"world_seed"`
	WorkloadSeed int64  `json:"workload_seed"`
}

// resultFile is what -all writes and -compare reads.
type resultFile struct {
	Stamp     stamp        `json:"stamp"`
	Workloads []*runResult `json:"workloads"`
}

func newStamp(seed int64) stamp {
	st := stamp{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: "unknown", WorldSeed: worldSeed, WorkloadSeed: seed,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				st.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		st.Commit += dirty
	}
	return st
}

func allMain(seed int64, seconds float64, clients int, smoke bool, out, outDir string) error {
	if smoke {
		seconds = 1
	}
	file := resultFile{Stamp: newStamp(seed)}
	worlds := map[string]*world{}
	failed := 0
	for _, spec := range workloads {
		kind := spec.World
		if smoke {
			kind = smallWorld
		}
		w := worlds[kind]
		if w == nil {
			var err error
			if w, err = buildWorld(kind); err != nil {
				return err
			}
			worlds[kind] = w
		}
		cfg := runConfig{Spec: spec, Seed: seed, Seconds: seconds, Clients: clients, Setups: setupRepeats, Smoke: smoke, TraceDir: outDir}
		if smoke {
			cfg.Setups = 1
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		printResult(res)
		failed += res.Failed
		file.Workloads = append(file.Workloads, res)
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d requests failed or were answered wrongly", failed)
	}
	return nil
}

// printResult prints every metric the run produced, by name, with its unit
// and the number of samples behind it.
func printResult(res *runResult) {
	fmt.Printf("\n== %s  (%d clients, %.1f s window, %d attempted, %d failed; latency tail supported: p%g)\n",
		res.Workload, res.Clients, res.Seconds, res.Attempted, res.Failed, res.Tail*100)
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	for _, m := range metrics {
		v, ok := res.Metrics[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d\n", m.Name, v, m.Unit, res.Samples[m.Name])
	}
	tw.Flush()
	for _, f := range res.Failures {
		fmt.Println("  failed:", f)
	}
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) workload(name string) *runResult {
	for _, r := range f.Workloads {
		if r.Workload == name {
			return r
		}
	}
	return nil
}

// compareMain prints one row per workload × end-to-end metric: both values,
// the ratio with its base, the bound and the verdict. It fails on "worse".
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench -compare A.json B.json")
	}
	a, err := readResults(args[0])
	if err != nil {
		return err
	}
	b, err := readResults(args[1])
	if err != nil {
		return err
	}
	rows, worse := compareResults(a, b)
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tB/A\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintln(tw, r)
	}
	tw.Flush()
	if len(worse) > 0 {
		sort.Strings(worse)
		return fmt.Errorf("worse beyond the bound: %s", strings.Join(worse, ", "))
	}
	return nil
}
