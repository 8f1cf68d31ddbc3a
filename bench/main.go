// Command bench is the repository's load-and-layers benchmark: four HTTP
// workloads against real tripolld processes for the end-to-end metrics, and
// a traced replay of the same scripts at each layer boundary for the
// per-layer metrics. See README.md in this directory and BENCHMARK.json at
// the repository root.
//
// Run it through run.sh, which builds tripolld, tripoll-worker and this
// program first:
//
//	bash bench/run.sh -seed 7                     # every workload, both passes
//	bash bench/run.sh -workload serve-hot -trace 0 -seed 7 -seconds 18
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// runDeadline bounds one (workload, pass); a run that exceeds it is killed
// and reported as failed rather than left hanging.
const runDeadline = 170 * time.Second

// result is the contract's output object, one per (workload, pass).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workloadFlag = flag.String("workload", "", "run one workload (default: all of "+fmt.Sprint(workloadNames)+")")
		seed         = flag.Int64("seed", 1, "input seed: the edge list and the request scripts are a pure function of (workload, seed, scale, seconds)")
		seconds      = flag.Float64("seconds", 18, "nominal length of the timed phase; script lengths scale with it")
		trace        = flag.String("trace", "both", "0 = untraced HTTP pass (end-to-end metrics), 1 = traced replay at a quarter of the length (per-layer metrics), both")
		scale        = flag.Float64("scale", 1, "graph size multiplier (the smoke test uses 0.02)")
		sets         = flag.Int("sets", 1, "repeat the whole selection this many times and compare the sets")
		out          = flag.String("out", "", "also write the full report (every metric with its sample count) to this JSON file")
		binDir       = flag.String("bin", ".bench_build/bin", "directory holding tripolld and tripoll-worker")
		workDir      = flag.String("work", ".bench_build/run", "scratch directory (edge lists, WAL directories, traces); removed on exit")
		traceDir     = flag.String("trace-dir", "", "keep each traced run's spans as <workload>.trace.json in this directory")
	)
	flag.Parse()
	os.Exit(realMain(*workloadFlag, *seed, *trace, *sets, *out, config{
		binDir: *binDir, workDir: *workDir, traceDir: *traceDir, scale: *scale, seconds: *seconds,
	}))
}

func realMain(only string, seed int64, trace string, sets int, outFile string, cfg config) (code int) {
	names := workloadNames
	if only != "" {
		if _, ok := sizes[only]; !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", only, workloadNames)
			return 2
		}
		names = []string{only}
	}
	var passes []string
	switch trace {
	case "0", "1":
		passes = []string{trace}
	case "both":
		passes = []string{"0", "1"}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace %q: want 0, 1 or both\n", trace)
		return 2
	}

	// One scratch directory per invocation, so concurrent invocations in one
	// checkout cannot collide; removed, with every child process killed, on
	// every way out — including SIGINT/SIGTERM.
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg.workDir = dir
	cleanup := func() {
		killAll()
		os.RemoveAll(dir)
	}
	defer cleanup()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
		cleanup()
		os.Exit(130)
	}()

	report := make(map[string]result) // "<set>/<workload>/<pass>"
	var last result
	for set := 1; set <= sets; set++ {
		for _, name := range names {
			for _, pass := range passes {
				runCtx, stop := context.WithTimeout(ctx, runDeadline)
				// The in-process replays enter collectives no context can
				// interrupt; if one hangs, this is the way out.
				watchdog := time.AfterFunc(runDeadline+5*time.Second, func() {
					fmt.Fprintf(os.Stderr, "bench: %s (trace %s) still running after %v: giving up\n", name, pass, runDeadline)
					cleanup()
					os.Exit(1)
				})
				res, err := runOne(runCtx, cfg, name, seed, pass)
				watchdog.Stop()
				stop()
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s (trace %s): %v\n", name, pass, err)
					return 1
				}
				printTable(name, pass, res)
				report[fmt.Sprintf("%d/%s/%s", set, name, pass)] = res
				last = res
			}
		}
	}
	if sets > 1 {
		if !compareSets(report, names, sets) {
			code = 1
		}
	}
	if outFile != "" {
		if err := writeReport(outFile, seed, cfg, report); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	final := last
	if len(report) > 1 {
		final = merged(report)
	}
	line, _ := json.Marshal(contractForm(final))
	fmt.Println(string(line))
	return code
}

// runOne generates one workload's inputs and runs one pass over them.
func runOne(ctx context.Context, cfg config, name string, seed int64, pass string) (result, error) {
	seconds := cfg.seconds
	if pass == "1" {
		seconds *= traceShare
	}
	w, err := generate(name, seed, cfg.scale, seconds)
	if err != nil {
		return result{}, err
	}
	if err := w.attachOracle(); err != nil {
		return result{}, err
	}
	dir := filepath.Join(cfg.workDir, name+"-"+pass)
	defer os.RemoveAll(dir)
	if pass == "1" {
		return runTraced(ctx, cfg, w, dir)
	}
	run, err := drive(ctx, cfg, w, dir, 2, false)
	if err != nil {
		return result{}, err
	}
	for _, f := range run.failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED", f)
	}
	return result{
		Correct:   len(run.failures) == 0,
		Attempted: run.attempts,
		Failed:    len(run.failures),
		Metrics:   endToEnd(&run),
	}, nil
}

// contractForm strips a result to the builder contract's shape: each metric
// exactly {value, unit}.
func contractForm(r result) map[string]any {
	ms := make(map[string]any, len(r.Metrics))
	for name, m := range r.Metrics {
		ms[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

// merged folds a multi-run report into one object for the last output line:
// metrics keyed "<set>/<workload>/<pass>/<metric>".
func merged(report map[string]result) result {
	out := result{Correct: true, Metrics: make(map[string]metric)}
	for key, r := range report {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for name, m := range r.Metrics {
			out.Metrics[key+"/"+name] = m
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printTable prints every metric of one run by name, with unit and sample
// count.
func printTable(name, pass string, r result) {
	fmt.Printf("== %s (trace %s): attempted %d, failed %d\n", name, pass, r.Attempted, r.Failed)
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		fmt.Printf("  %-32s %14.4f %-8s n=%d\n", k, m.Value, m.Unit, m.N)
	}
}
