package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"tripoll/internal/graph"
)

// digest hashes everything a generated workload hands to tripolld: the
// edge-list file's bytes and every request of every script, in order.
func digest(t *testing.T, w *workload) string {
	t.Helper()
	h := sha256.New()
	if err := graph.WriteEdgeList(h, w.base); err != nil {
		t.Fatal(err)
	}
	scripts := [][]op{w.warm, {w.final}}
	for _, r := range w.rounds {
		scripts = append(scripts, r[0], r[1])
	}
	for _, script := range scripts {
		h.Write([]byte{0})
		for i := range script {
			h.Write([]byte(script[i].path()))
			h.Write(script[i].body)
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestInputsAreAFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, name := range workloadNames {
		gen := func(seed int64) *workload {
			w, err := generate(name, seed, 0.02, 2)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			return w
		}
		a, b, c := digest(t, gen(3)), digest(t, gen(3)), digest(t, gen(4))
		if a != b {
			t.Errorf("%s: two generations with one seed differ", name)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 give the same inputs", name)
		}
	}
}

func TestSurveyColdNeverRepeatsASpec(t *testing.T) {
	w, err := generate(surveyCold, 1, 0.02, 10)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, o := range w.timed() {
		if o.kind != opQuery {
			continue
		}
		if seen[string(o.body)] {
			t.Fatalf("spec repeats: %s", o.body)
		}
		seen[string(o.body)] = true
	}
	// Every block of 20 holds the survey mix exactly.
	want := make(map[string]int)
	for _, class := range surveyBlock {
		want[class]++
	}
	for c, list := range w.rounds[0] {
		if len(list) == 0 || len(list)%len(surveyBlock) != 0 {
			t.Fatalf("client %d: %d queries, want whole blocks of %d", c, len(list), len(surveyBlock))
		}
		for b := 0; b < len(list); b += len(surveyBlock) {
			got := make(map[string]int)
			for _, o := range list[b : b+len(surveyBlock)] {
				got[o.class]++
			}
			for class, n := range want {
				if got[class] != n {
					t.Fatalf("client %d block %d: %d %s, want %d", c, b/len(surveyBlock), got[class], class, n)
				}
			}
		}
	}
}

func TestServeHotDrawsFromA64SpecCatalogue(t *testing.T) {
	w, err := generate(serveHot, 1, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.catalogue) != 64 {
		t.Fatalf("catalogue has %d entries, want 64", len(w.catalogue))
	}
	known := make(map[string]bool)
	for _, o := range w.catalogue {
		known[string(o.body)] = true
	}
	if len(known) != 64 {
		t.Fatalf("catalogue has %d distinct specs, want 64", len(known))
	}
	for _, o := range w.timed() {
		if o.kind == opQuery && !known[string(o.body)] {
			t.Fatalf("scripted request outside the catalogue: %s", o.body)
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram holds the declaration at the
// repository root to what this program emits: the workloads, every
// end-to-end metric with unit, direction and bound, every per-layer metric
// with its unit.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: declared %q, program has %q", i, w.Name, workloadNames[i])
		}
	}
	if len(decl.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program has %d", len(decl.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range decl.EndToEnd {
		if want := endToEndMetrics[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end metric %d: declared %+v, program has %+v", i, m, want)
		}
	}
	if len(decl.PerLayer) != len(layerMetricUnits) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the program has %d", len(decl.PerLayer), len(layerMetricUnits))
	}
	for _, m := range decl.PerLayer {
		if unit, ok := layerMetricUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer metric %q (%s): program has unit %q (known: %v)", m.Name, m.Unit, unit, ok)
		}
	}
}
