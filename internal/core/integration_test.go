package core

import (
	"fmt"
	"testing"

	"tripoll/internal/baseline"
	"tripoll/internal/gen"
	"tripoll/internal/graph"
	"tripoll/internal/rmat"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// TestIntegrationMatrix is the full-pipeline cross-product check:
// generator × rank count × algorithm × world configuration, all validated
// against the serial ground truth. This is the test that would catch any
// interaction bug between the builder, the runtime options and the survey.
func TestIntegrationMatrix(t *testing.T) {
	generators := []struct {
		name  string
		edges [][2]uint64
	}{
		{"er", gen.ErdosRenyi(60, 500, 1)},
		{"ba", gen.BarabasiAlbert(300, 5, 2)},
		{"ws", gen.WattsStrogatz(200, 3, 0.1, 3)},
		{"k12", gen.Complete(12)},
		{"rmat", rmatEdges(t, 8)},
	}
	worlds := []struct {
		name string
		opts ygm.Options
	}{
		{"default", ygm.Options{}},
		{"tinybuf", ygm.Options{BufferBytes: 128}},
		{"grouped", ygm.Options{GroupSize: 2}},
	}
	for _, g := range generators {
		want := baseline.SerialCount(g.edges)
		for _, wc := range worlds {
			for _, nranks := range []int{1, 4} {
				for _, mode := range []Mode{PushOnly, PushPull} {
					name := fmt.Sprintf("%s/%s/r%d/%v", g.name, wc.name, nranks, mode)
					t.Run(name, func(t *testing.T) {
						w := ygm.MustWorld(nranks, wc.opts)
						defer w.Close()
						b := graph.NewBuilder(w, serialize.UnitCodec(), serialize.UnitCodec(), graph.BuilderOptions[serialize.Unit]{})
						var dg *graph.DODGr[serialize.Unit, serialize.Unit]
						w.Parallel(func(r *ygm.Rank) {
							for i := r.ID(); i < len(g.edges); i += r.Size() {
								b.AddEdge(r, g.edges[i][0], g.edges[i][1], serialize.Unit{})
							}
							gg := b.Build(r)
							if r.ID() == 0 {
								dg = gg
							}
						})
						res, err := Run(dg, Options{Mode: mode}, nil)
						if err != nil {
							t.Fatal(err)
						}
						if res.Triangles != want {
							t.Errorf("count = %d, want %d", res.Triangles, want)
						}
					})
				}
			}
		}
	}
}

func rmatEdges(t *testing.T, scale int) [][2]uint64 {
	t.Helper()
	p := rmat.Params{Scale: scale, Seed: 77, Scramble: true}
	out := make([][2]uint64, 0, p.NumEdges())
	p.Generate(0, p.NumEdges(), func(u, v uint64) { out = append(out, [2]uint64{u, v}) })
	return out
}

// TestIntegrationSurveyPipelines chains multiple different surveys over
// the same world and graph, confirming handler registries and counter
// state stay isolated across survey instances.
func TestIntegrationSurveyPipelines(t *testing.T) {
	edges := gen.BarabasiAlbert(400, 6, 9)
	w, g := buildMeta(t, 4, edges, ygm.Options{})
	defer w.Close()

	count1, err := Run(g, Options{Mode: PushPull}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var verts map[uint64]uint64
	if _, err := Run(g, Options{Mode: PushOnly}, nil, VertexCountAnalysis[uint64, uint64]().Bind(&verts)); err != nil {
		t.Fatal(err)
	}
	var edgesC map[EdgeKey]uint64
	if _, err := Run(g, Options{Mode: PushPull}, nil, EdgeCountAnalysis[uint64, uint64]().Bind(&edgesC)); err != nil {
		t.Fatal(err)
	}
	var cs ClusteringAccum
	if _, err := Run(g, Options{}, nil, ClusteringAnalysis(g).Bind(&cs)); err != nil {
		t.Fatal(err)
	}
	count2, err := Run(g, Options{Mode: PushOnly}, nil)
	if err != nil {
		t.Fatal(err)
	}

	if count1.Triangles != count2.Triangles {
		t.Errorf("counts drifted across surveys: %d vs %d", count1.Triangles, count2.Triangles)
	}
	var vsum, esum uint64
	for _, c := range verts {
		vsum += c
	}
	for _, c := range edgesC {
		esum += c
	}
	if vsum != 3*count1.Triangles || esum != 3*count1.Triangles {
		t.Errorf("participation sums: vertices %d, edges %d, want %d", vsum, esum, 3*count1.Triangles)
	}
	if cs.Stats.Triangles != count1.Triangles {
		t.Errorf("clustering triangles = %d", cs.Stats.Triangles)
	}
}
