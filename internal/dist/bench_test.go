package dist

import (
	"sync"
	"testing"

	"tripoll/internal/ygm"
)

// BenchmarkLinkRound times one control-link round trip of each kind on a
// 2-process × 1-rank world: what every collective and every barrier verdict
// of a multi-process traversal pays.
func BenchmarkLinkRound(b *testing.B) {
	rounds := map[string]func(r *ygm.Rank){
		"sync":     func(r *ygm.Rank) { ygm.Rendezvous(r) },
		"exchange": func(r *ygm.Rank) { ygm.AllReduceSum(r, uint64(r.ID())) },
		"vector":   func(r *ygm.Rank) { ygm.AllReduceVec(r, make([]uint64, 16), 15) },
	}
	for name, round := range rounds {
		b.Run(name, func(b *testing.B) {
			co, err := Listen(Config{Procs: 2, RanksPerProc: 1, Opts: tcpOpts()})
			if err != nil {
				b.Fatal(err)
			}
			joined := make(chan *Worker, 1)
			go func() {
				wk, _ := Join(co.Addr(), "", 0)
				joined <- wk
			}()
			cl, err := co.Accept()
			wk := <-joined
			if err != nil || wk == nil {
				b.Fatalf("rendezvous: %v", err)
			}
			body := func(w *ygm.World) {
				w.Parallel(func(r *ygm.Rank) {
					for i := 0; i < b.N; i++ {
						round(r)
					}
				})
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { defer wg.Done(); body(wk.World()) }()
			body(cl.World())
			wg.Wait()
			b.StopTimer()
			go Serve(wk, Hooks[U, uint64]{}, nil)
			cl.Close()
		})
	}
}
