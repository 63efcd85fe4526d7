package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbnet/internal/tee"
	"tbnet/internal/tensor"
)

// gateTap parks the first protocol run it sees inside its worker until
// release is closed, so a test can keep a pool's only worker busy on demand
// and let later requests genuinely queue behind it. Later runs pass through.
type gateTap struct {
	held    chan struct{} // closed once the first run is parked in the tap
	release chan struct{}
	once    sync.Once
}

func newGateTap() *gateTap {
	return &gateTap{held: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateTap) TapRun(tee.Device, string, int, []tee.Event) float64 {
	g.once.Do(func() {
		close(g.held)
		<-g.release
	})
	return 0
}

// holdAndEnqueue admits xs[0], waits until its run is parked in the gate,
// then admits the rest behind the busy worker. Each enqueue returns once its
// request is in the queue, so none is still on its way when the test goes on.
func holdAndEnqueue(t *testing.T, srv *Server, gate *gateTap, xs []*tensor.Tensor) []*request {
	t.Helper()
	p, err := srv.lookup(DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*request, len(xs))
	for i, x := range xs {
		reqs[i] = &request{x: x, resp: make(chan response, 1), ctx: context.Background()}
		if err := p.enqueue(context.Background(), reqs[i]); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-gate.held
		}
	}
	return reqs
}

// TestServerIdleWorkerSkipsMaxDelay: on an idle pool a lone request goes
// straight to a worker, so MaxDelay bounds the batching wait instead of
// adding to every request.
func TestServerIdleWorkerSkipsMaxDelay(t *testing.T) {
	srv, err := New(testDeployment(t, 100), Config{Workers: 1, MaxBatch: 8, MaxDelay: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := time.Now()
	if _, err := srv.Infer(context.Background(), randSamples(1, 101)[0]); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el >= time.Second {
		t.Fatalf("lone request on an idle pool took %v, want well under the 10s MaxDelay", el)
	}
}

// TestServerBusyWorkerCoalesces: while the only worker is busy, queued
// requests keep joining one partial batch, which goes out whole the moment
// the worker frees up.
func TestServerBusyWorkerCoalesces(t *testing.T) {
	const n = 5
	gate := newGateTap()
	srv, err := New(testDeployment(t, 102), Config{Workers: 1, MaxBatch: 8, MaxDelay: 10 * time.Second, Tap: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reqs := holdAndEnqueue(t, srv, gate, randSamples(n+1, 103))
	close(gate.release)
	for i, r := range reqs {
		if res := <-r.resp; res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
	}
	if st := srv.Stats(); st.LargestBatch != n {
		t.Fatalf("largest batch = %d, want all %d queued requests in one", st.LargestBatch, n)
	}
}

// TestServerSwapWhileOfferingBatch: a swap or resize arrives while the
// dispatcher holds a partial batch and, every worker busy, waits in its offer
// select with the generation lock held shared. The operation must finish once
// the worker frees up, well before the minute-long MaxDelay, and every request
// must be answered with the label the weights produce.
func TestServerSwapWhileOfferingBatch(t *testing.T) {
	const n = 3
	xs := randSamples(n+1, 105)
	want := sequentialLabels(t, testDeployment(t, 104), xs)
	for _, tc := range []struct {
		name    string
		op      func(*Server) error
		workers int
	}{
		// Same weights, so the labels stay checkable across the swap.
		{"swap", func(s *Server) error { return s.Swap(testDeployment(t, 104)) }, 1},
		{"resize", func(s *Server) error { return s.Resize(2) }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := newGateTap()
			srv, err := New(testDeployment(t, 104), Config{Workers: 1, MaxBatch: 8, MaxDelay: time.Minute, Tap: gate})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			reqs := holdAndEnqueue(t, srv, gate, xs)
			p, err := srv.lookup(DefaultModel)
			if err != nil {
				t.Fatal(err)
			}
			// A failed TryLock means a reader holds the lock: the dispatcher,
			// parked in its offer select.
			for p.genMu.TryLock() {
				p.genMu.Unlock()
				time.Sleep(50 * time.Microsecond)
			}
			opErr := make(chan error, 1)
			go func() { opErr <- tc.op(srv) }()
			// A failed TryRLock means a writer is waiting: the operation.
			for p.genMu.TryRLock() {
				p.genMu.RUnlock()
				time.Sleep(50 * time.Microsecond)
			}
			close(gate.release)
			select {
			case err := <-opErr:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("operation deadlocked against the dispatcher's batch offer")
			}
			for i, r := range reqs {
				res := <-r.resp
				if res.err != nil {
					t.Fatalf("request %d: %v", i, res.err)
				}
				if res.label != want[i] {
					t.Fatalf("request %d: label %d, want %d", i, res.label, want[i])
				}
			}
			if _, err := srv.Infer(context.Background(), xs[0]); err != nil {
				t.Fatalf("after the operation: %v", err)
			}
			if st := srv.Stats(); st.Requests != n+2 || st.Workers != tc.workers {
				t.Fatalf("stats requests %d workers %d, want %d and %d", st.Requests, st.Workers, n+2, tc.workers)
			}
		})
	}
}

// TestServerStatsCountBeforeReply hammers the pool and checks, after every
// reply, that Stats already counts it: the worker records a batch before it
// answers the batch's callers. One worker with large batches leaves the most
// callers woken while their batch is still being answered.
func TestServerStatsCountBeforeReply(t *testing.T) {
	srv, err := New(testDeployment(t, 106), Config{Workers: 1, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	xs := randSamples(8, 107)
	var replies atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				if _, err := srv.Infer(context.Background(), xs[(g+i)%len(xs)]); err != nil {
					t.Error(err)
					return
				}
				got := replies.Add(1)
				if st := srv.Stats(); st.Requests < got {
					t.Errorf("Stats().Requests = %d after %d replies", st.Requests, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
