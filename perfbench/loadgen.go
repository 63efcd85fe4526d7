package main

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tbnet/internal/fleet"
	"tbnet/internal/obs"
)

// caller sends one request carrying pool sample `sample` and returns the
// label the system answered. A request refused by admission control returns
// an error wrapping fleet.ErrOverloaded.
type caller func(ctx context.Context, sample int) (int, error)

// arrival is one open-loop request: when it is due, as an offset from the
// phase start, and which pool sample it carries.
type arrival struct {
	due    time.Duration
	sample int
}

// poissonSchedule draws Poisson arrivals at rps over dur. The schedule
// depends only on its arguments.
func poissonSchedule(seed uint64, rps float64, dur time.Duration) []arrival {
	rng := rand.New(rand.NewPCG(seed, 1))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rps
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			break
		}
		out = append(out, arrival{due: due})
	}
	for i, sample := range samplePicks(seed, 2, len(out)) {
		out[i].sample = sample
	}
	return out
}

// samplePicks returns n pool samples as successive random permutations of
// the pool, drawn from stream of seed. Every run thus covers the pool
// evenly, so accuracy does not hinge on which samples a seed happens to
// draw.
func samplePicks(seed, stream uint64, n int) []int {
	rng := rand.New(rand.NewPCG(seed, stream))
	out := make([]int, 0, n+poolN)
	for len(out) < n {
		out = append(out, rng.Perm(poolN)...)
	}
	return out[:n]
}

// slice returns the arrivals of part i of n equal time slices of a schedule
// spanning dur, with due times counted from the slice's start.
func slice(sched []arrival, dur time.Duration, i, n int) []arrival {
	lo, hi := dur*time.Duration(i)/time.Duration(n), dur*time.Duration(i+1)/time.Duration(n)
	var out []arrival
	for _, a := range sched {
		if a.due >= lo && a.due < hi {
			out = append(out, arrival{due: a.due - lo, sample: a.sample})
		}
	}
	return out
}

// phase tallies one load phase. Every request sent lands in exactly one of
// ok, wrong, shed and errors.
type phase struct {
	name                          string
	sent, ok, wrong, shed, errors int
	// accurate counts ok replies whose label is also the ground truth.
	accurate int
	// latMs is each request's latency in ms, +Inf for a miss (a shed,
	// failed or wrong reply). Open-loop latency runs from the due time.
	latMs []float64
	// lateMs is how late the generator sent each open-loop request.
	lateMs      []float64
	inflightMax int
	elapsed     time.Duration
}

func (p *phase) failed() int { return p.wrong + p.shed + p.errors }

// add folds another slice of the same phase into p.
func (p *phase) add(o *phase) {
	p.sent += o.sent
	p.ok += o.ok
	p.wrong += o.wrong
	p.shed += o.shed
	p.errors += o.errors
	p.accurate += o.accurate
	p.latMs = append(p.latMs, o.latMs...)
	p.lateMs = append(p.lateMs, o.lateMs...)
	p.inflightMax = max(p.inflightMax, o.inflightMax)
	p.elapsed += o.elapsed
}

// judge classifies one outcome and returns whether it counts as a hit.
func (p *phase) judge(pl *pool, sample, label int, err error) bool {
	switch {
	case err == nil && label == pl.ref[sample]:
		p.ok++
		if label == pl.truth[sample] {
			p.accurate++
		}
		return true
	case err == nil:
		p.wrong++
	case errors.Is(err, fleet.ErrOverloaded):
		p.shed++
	default:
		p.errors++
	}
	return false
}

// result is one request's outcome, written by the goroutine that sent it.
type result struct {
	label int
	err   error
	done  time.Duration // completion, as an offset from the phase start
}

// runOpen sends the schedule open-loop: each request leaves at its due time
// whether or not earlier ones were answered, and its latency is timed from
// the due time, so a stall also charges the requests queued behind it.
func runOpen(ctx context.Context, name string, sched []arrival, pl *pool, call caller) *phase {
	ph := &phase{name: name, sent: len(sched), latMs: make([]float64, len(sched)), lateMs: make([]float64, len(sched))}
	res := make([]result, len(sched))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		if d := a.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		ph.lateMs[i] = ms(time.Since(start) - a.due)
		// Only this loop increments, so the peak is seen here.
		if n := int(inflight.Add(1)); n > ph.inflightMax {
			ph.inflightMax = n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			label, err := call(ctx, a.sample)
			res[i] = result{label: label, err: err, done: time.Since(start)}
			inflight.Add(-1)
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	for i, a := range sched {
		ph.latMs[i] = math.Inf(1)
		if ph.judge(pl, a.sample, res[i].label, res[i].err) {
			ph.latMs[i] = ms(res[i].done - a.due)
		}
	}
	return ph
}

// runClosed runs `callers` clients that each send their next request only
// after the previous reply, until dur has passed. Samples are taken from
// picks in turn.
func runClosed(ctx context.Context, name string, callers int, dur time.Duration, picks []int, pl *pool, call caller) *phase {
	ph := &phase{name: name, inflightMax: callers}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine phase
			for time.Since(start) < dur {
				sample := picks[int(next.Add(1)-1)%len(picks)]
				t0 := time.Now()
				label, err := call(ctx, sample)
				lat := math.Inf(1)
				if mine.judge(pl, sample, label, err) {
					lat = ms(time.Since(t0))
				}
				mine.sent++
				mine.latMs = append(mine.latMs, lat)
			}
			mu.Lock()
			ph.add(&mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// quantile returns the nearest-rank q-quantile of xs (misses are +Inf and
// sort last) without reordering xs; 0 when xs is empty, as for a layer the
// workload does not pass through.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return obs.NearestRank(s, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
