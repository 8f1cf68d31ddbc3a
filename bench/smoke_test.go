package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload at 1/50 scale, untraced and traced, through
// the same entry point the command line uses, against freshly built
// tripolld and tripoll-worker processes. It asserts structure only — the
// report parses, every declared metric is present with its unit and a
// sample count, nothing failed, no child process survives — and never a
// latency, so it cannot flake on a loaded host.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts tripolld processes")
	}
	tmp := t.TempDir()
	binDir := filepath.Join(tmp, "bin")
	build := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/tripolld", "./cmd/tripoll-worker")
	build.Dir = ".." // the repository's own module
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build tripolld: %v\n%s", err, out)
	}
	report := filepath.Join(tmp, "report.json")
	code := realMain("", 5, "both", 1, report, config{
		binDir: binDir, workDir: filepath.Join(tmp, "work"), scale: 0.02, seconds: 1,
	})
	if code != 0 {
		t.Fatalf("benchmark exited with code %d", code)
	}

	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results map[string]result
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, w := range workloadNames {
		for pass, want := range map[string]map[string]string{"0": endToEndUnits(), "1": layerMetricUnits} {
			key := fmt.Sprintf("1/%s/%s", w, pass)
			res, ok := doc.Results[key]
			if !ok {
				t.Errorf("%s: no result", key)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", key, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s: %d metrics, want %d", key, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", key, name)
				case m.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, want %q", key, name, m.Unit, unit)
				case !nameOK.MatchString(name):
					t.Errorf("%s: metric name %q", key, name)
				case pass == "0" && (m.N == 0 || m.Value <= 0):
					t.Errorf("%s: end-to-end metric %s = %v over %d samples", key, name, m.Value, m.N)
				}
			}
		}
	}
	if res := doc.Results["1/"+trussIndex+"/1"]; res.Metrics["truss.index_served_ratio"].Value != 1 {
		t.Errorf("truss-index: index served ratio %v, want 1", res.Metrics["truss.index_served_ratio"].Value)
	}
	if res := doc.Results["1/"+serveHot+"/1"]; res.Metrics["engine.traversals"].Value != 0 {
		t.Errorf("serve-hot: %v traversals in the timed passes, want 0", res.Metrics["engine.traversals"].Value)
	}

	// No process started from the freshly built binaries may be left.
	procs, _ := filepath.Glob("/proc/[0-9]*/exe")
	for _, p := range procs {
		if exe, err := os.Readlink(p); err == nil && strings.HasPrefix(exe, binDir) {
			t.Errorf("process survives the run: %s -> %s", p, exe)
		}
	}
	if ents, _ := os.ReadDir(filepath.Join(tmp, "work")); len(ents) != 0 {
		t.Errorf("scratch directory not emptied: %d entries left", len(ents))
	}
}

func endToEndUnits() map[string]string {
	out := make(map[string]string, len(endToEndMetrics))
	for _, m := range endToEndMetrics {
		out[m.name] = m.unit
	}
	return out
}
