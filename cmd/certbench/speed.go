package main

import (
	"slices"
	"sync"
	"time"
)

// The machine this benchmark runs on is shared: its speed drifts by tens
// of percent within seconds, whatever code runs. Every run therefore also
// times a fixed reference task that shares no code with the repository
// (sorting a copy of a fixed 128 KB array, which stays in the L2 cache) on
// its own goroutine, a short burst every refEvery from the first set-up to
// the end of the window, and reports each timing metric at a fixed
// reference speed:
//
//	reported = measured × refNominalMS / median(reference task time in this run)
//
// Raw values are kept in the -o report. A change to the repository cannot
// move the reference task, so the correction cancels machine drift and
// nothing else. Of the reference tasks tried (this sort, a random walk
// over a 16 MB table, a pure arithmetic loop, a mix), the sort tracked
// the drift of the batch and verify ops best, and sampling throughout
// the run tracked it better than sampling only between ops.
type speedometer struct {
	took []float64 // reference task durations, ms
	src  []uint64
	work []uint64
}

// refNominalMS is the reference task's duration on a quiet run of the
// two-core machine the bounds were calibrated on; reported times are in
// milliseconds at that speed.
const refNominalMS = 1.1

// Sampling cadence: a burst of refBurst timed tasks every refEvery,
// about 5% of one CPU.
const (
	refEvery = 100 * time.Millisecond
	refBurst = 3
)

func newSpeedometer() *speedometer {
	s := &speedometer{src: make([]uint64, 1<<14), work: make([]uint64, 1<<14)}
	for i := range s.src {
		s.src[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return s
}

// burst runs the reference task once untimed, so its array is back in
// cache after whatever ran before, then times refBurst runs.
func (s *speedometer) burst() {
	for i := 0; i <= refBurst; i++ {
		t0 := time.Now()
		copy(s.work, s.src)
		slices.Sort(s.work)
		if i > 0 {
			s.took = append(s.took, ms(time.Since(t0)))
		}
	}
}

// during samples on its own goroutine every refEvery until the returned
// stop function is called; stop returns once the sampler has exited.
func (s *speedometer) during() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(refEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.burst()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// scale is the factor from measured to reference-speed time.
func (s *speedometer) scale() float64 {
	return refNominalMS / median(s.took)
}
