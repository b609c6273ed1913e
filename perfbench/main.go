// Command perfbench is the repository benchmark: it runs one named
// workload against the congestmst library for a fixed time, checks every
// answer against its own Kruskal, and prints each metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"wall_s": {"value": 2.01, "unit": "s"}, ...}}
//
// Usage (run.sh builds the binary first):
//
//	perfbench --workload elkin-random --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// observer attached; with --trace 1 a separate traced run reports the
// per-layer split. METRICS.md defines every metric and records which
// end-to-end metric each layer metric should move, on which workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"congestmst"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the library or the service sees;
// every workload reports all of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"allocs_per_job", "count"},
	{"alloc_mb_per_job", "MB"},
	{"peak_rss_mb", "MB"},
	{"rounds", "count"},
	{"messages", "count"},
	{"ok_frac", "fraction"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"patch_p50_ms", "ms"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0 (no socket bytes on a Fiber run, no Elkin stages on
// a GHS run).
var perLayer = []metricDef{
	{"parsim.setup_s", "s"},
	{"parsim.round_s", "s"},
	{"parsim.busy_s", "s"},
	{"parsim.barrier_wait_s", "s"},
	{"parsim.shard_skew", "ratio"},
	{"parsim.execs", "count"},
	{"parsim.execs_per_msg", "ratio"},
	{"parsim.played_round_frac", "fraction"},
	{"core.bfs_build_s", "s"},
	{"core.bfs_build_rounds", "count"},
	{"core.bfs_build_messages", "count"},
	{"core.base_forest_s", "s"},
	{"core.base_forest_rounds", "count"},
	{"core.base_forest_messages", "count"},
	{"core.register_s", "s"},
	{"core.register_rounds", "count"},
	{"core.register_messages", "count"},
	{"core.boruvka_s", "s"},
	{"core.boruvka_rounds", "count"},
	{"core.boruvka_messages", "count"},
	{"program.allocs_per_msg", "ratio"},
	{"gc.cycles", "count"},
	{"gc.cpu_s", "s"},
	{"gc.pause_s", "s"},
	{"verify.s", "s"},
	{"graph.gen_s", "s"},
	{"graph.kruskal_s", "s"},
	{"nettrans.round_s", "s"},
	{"nettrans.busy_s", "s"},
	{"nettrans.sync_wait_s", "s"},
	{"nettrans.bytes_out", "bytes"},
	{"nettrans.frames_out", "count"},
	{"nettrans.bytes_per_msg", "bytes"},
	{"nettrans.rtt_us", "us"},
	{"nettrans.reconnects", "count"},
	{"nettrans.replayed_frames", "count"},
	{"service.upload_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.cache_hit_ratio", "fraction"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.rejected", "count"},
	{"dynamic.patch_ops", "count"},
	{"dynamic.path_arcs", "count"},
	{"dynamic.cut_arcs", "count"},
	{"dynamic.cache_transferred_ratio", "fraction"},
	{"obs.trace_overhead_frac", "fraction"},
}

// runConfig is what every workload receives: the seed its inputs are
// generated from, how long to measure, and whether this is the traced
// run.
type runConfig struct {
	seed    uint64
	measure time.Duration
	trace   bool
}

// result is one workload run: the operations it attempted against the
// program, those that failed (error, wrong answer, refusal, or stats
// that did not repeat), every metric it measured, and the trace.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	trace             *tracer
	// shares describes the traffic a run actually sent (service-mixed
	// only): printed and recorded, but not a metric.
	shares map[string]float64
}

// workload runs one named input set.
type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig) (*result, error)
}

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median.
const setupReps = 5

// runBudget bounds one process run, set-up and build excluded; the
// harness must exit well inside three minutes whatever the program does.
const runBudget = 150 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, false))
}

// run parses the command line, runs the workload and prints its report;
// it returns the process exit code. tiny selects the test-scale inputs.
func run(args []string, stdout, stderr io.Writer, tiny bool) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed (same seed, same inputs)")
	seconds := fs.Float64("seconds", 10, "measurement time")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", "", "directory for the run record (host, metrics, spans); empty writes none")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name, tiny)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
	}
	// Jobs still in flight at the budget are cancelled and count as
	// failures.
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	res, err := w.run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	host := fingerprint()
	report := finalReport{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]reportMetric, len(defs)),
	}
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostLine)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d: %d attempted, %d failed\n",
		w.name, cfg.seed, *seconds, *traceFlag, res.attempted, res.failed)
	for _, d := range defs {
		v := res.metrics[d.name]
		report.Metrics[d.name] = reportMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %-34s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, k := range slices.Sorted(maps.Keys(res.shares)) {
		fmt.Fprintf(stdout, "share  %-34s %16.6g\n", k, res.shares[k])
	}
	self := res.trace.selfTimes()
	for _, st := range self {
		fmt.Fprintf(stdout, "self   %-34s %16.6g s over %d spans\n", st.Name, st.Seconds, st.Count)
	}
	if *out != "" {
		rec := record{Host: host, Workload: w.name, Seed: cfg.seed, Seconds: *seconds, Trace: *traceFlag,
			Report: report, Shares: res.shares, SelfTime: self, Spans: res.trace.snapshot()}
		if err := writeRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	last, _ := json.Marshal(report)
	fmt.Fprintf(stdout, "%s\n", last)
	return 0
}

type reportMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalReport struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]reportMetric `json:"metrics"`
}

// hostInfo is the fingerprint every result record carries.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

// fingerprint describes the host and the code under test. The commit is
// the VCS stamp the Go toolchain embeds when the build runs inside a git
// checkout ("+dirty" when the tree had local changes), else "unknown".
func fingerprint() hostInfo {
	h := hostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.Commit = rev
			if dirty {
				h.Commit += "+dirty"
			}
		}
	}
	return h
}

// record is the file a run leaves behind: the printed report plus the
// trace, stamped with the host.
type record struct {
	Host     hostInfo           `json:"host"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    int                `json:"trace"`
	Report   finalReport        `json:"report"`
	Shares   map[string]float64 `json:"shares,omitempty"`
	SelfTime []selfTime         `json:"self_time"`
	Spans    []span             `json:"spans"`
}

func writeRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, rec.Trace))
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	return nil
}

// workloadList defines the workloads; tiny shrinks every input for the
// harness's own tests while keeping each workload's shape.
func workloadList(tiny bool) []workload {
	scale := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	batch := func(name string, spec batchSpec) workload {
		return workload{name, func(ctx context.Context, cfg runConfig) (*result, error) {
			return runBatch(ctx, cfg, spec)
		}}
	}
	var sizes []int
	for n := 100; n < 260; n += 5 {
		sizes = append(sizes, n)
	}
	if tiny {
		sizes = []int{40, 50, 60}
	}
	n1, n2, n3 := scale(8192, 256), scale(131072, 1024), scale(4096, 256)
	return []workload{
		batch("elkin-random", batchSpec{alg: congestmst.Elkin, engine: congestmst.Fiber,
			n: n1, m: 3 * n1, inserts: 8, deletes: 8}),
		batch("ghs-large", batchSpec{alg: congestmst.GHS, engine: congestmst.Fiber,
			n: n2, m: 3 * n2, inserts: 8, deletes: 8}),
		batch("cluster-tcp", batchSpec{alg: congestmst.Elkin, engine: congestmst.Cluster,
			n: n3, m: 3 * n3, shards: 2, inserts: 8, deletes: 8}),
		{"service-mixed", func(ctx context.Context, cfg runConfig) (*result, error) {
			return runService(ctx, cfg, serviceSpec{sizes: sizes, variants: 4, inserts: 4, deletes: 4,
				reads: 15, writes: 3, misses: 2})
		}},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadList(false) {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string, tiny bool) (workload, bool) {
	for _, w := range workloadList(tiny) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
