package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// endToEndSpec declares one end-to-end metric; BENCHMARK.json repeats the
// table (a test holds the two together).
type endToEndSpec struct {
	name, unit, better string
	bound              float64 // share of the parent's median it may worsen by
}

var endToEndMetrics = []endToEndSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"mutate_p50_ms", "ms", "lower", 0.25},
	{"mutate_p95_ms", "ms", "lower", 0.25},
	{"ingest_eps", "edges/s", "higher", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.20},
}

// exactCounts are the per-layer metrics that are counts made by the program
// and must repeat exactly between two sets of one seed.
var exactCounts = []string{"core.msgs_per_run", "core.bytes_per_run", "tripolld.resp_kb", "wal.bytes_per_edge"}

// compareSets prints, per (workload, end-to-end metric), the first and last
// set's values, their ratio and PASS/FAIL against the metric's own bound,
// and checks that the exact counts repeat. It reports whether all passed.
func compareSets(report map[string]result, names []string, sets int) bool {
	ok := true
	fmt.Printf("== repeat check: set 1 vs set %d\n", sets)
	for _, name := range names {
		first, have1 := report[fmt.Sprintf("1/%s/0", name)]
		last, have2 := report[fmt.Sprintf("%d/%s/0", sets, name)]
		if have1 && have2 {
			for _, spec := range endToEndMetrics {
				a, b := first.Metrics[spec.name].Value, last.Metrics[spec.name].Value
				verdict := "PASS"
				if a == 0 || math.Abs(b/a-1) > spec.bound {
					verdict, ok = "FAIL", false
				}
				fmt.Printf("  %-12s %-14s %12.4f %12.4f  ratio %.3f  bound %.2f  %s\n", name, spec.name, a, b, b/a, spec.bound, verdict)
			}
		}
		firstT, have1 := report[fmt.Sprintf("1/%s/1", name)]
		lastT, have2 := report[fmt.Sprintf("%d/%s/1", sets, name)]
		if have1 && have2 {
			for _, count := range exactCounts {
				a, b := firstT.Metrics[count].Value, lastT.Metrics[count].Value
				verdict := "PASS"
				if a != b {
					verdict, ok = "FAIL", false
				}
				fmt.Printf("  %-12s %-22s %16.6f %16.6f  exact  %s\n", name, count, a, b, verdict)
			}
		}
	}
	return ok
}

// writeReport writes every result with its sample counts, stamped with
// where and on what it was measured.
func writeReport(path string, seed int64, cfg config, report map[string]result) error {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	doc := map[string]any{
		"seed": seed, "scale": cfg.scale, "seconds": cfg.seconds,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
		"results": report, // keyed "<set>/<workload>/<trace>"
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
