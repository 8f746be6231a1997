package main

import (
	"time"

	"repro/internal/exp"
)

// schedSampler watches a suite's scheduler from outside: it polls the
// submitted/completed task counters and integrates how many workers had
// a cell to run. Prefetch waves end in a Join barrier, so the time with
// some but fewer cells in flight than workers is the wave tail the
// barrier waits on.
type schedSampler struct {
	suite   *exp.Suite
	workers int
	stop    chan struct{}
	done    chan struct{}

	waves int
	join  time.Duration // 0 < in flight < workers
	idle  time.Duration // worker-seconds without a cell
	span  time.Duration
}

const samplePeriod = 500 * time.Microsecond

func startSampler(s *exp.Suite) *schedSampler {
	sp := &schedSampler{suite: s, workers: s.Workers(), stop: make(chan struct{}), done: make(chan struct{})}
	go sp.loop()
	return sp
}

func (sp *schedSampler) loop() {
	defer close(sp.done)
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	last := time.Now()
	prev := int64(0)
	for {
		select {
		case <-sp.stop:
			return
		case now := <-tick.C:
			dt := now.Sub(last)
			last = now
			sub, comp := sp.suite.SchedulerStats()
			inflight := sub - comp
			if prev == 0 && inflight > 0 {
				sp.waves++
			}
			prev = inflight
			busy := min(inflight, int64(sp.workers))
			sp.idle += time.Duration(int64(sp.workers)-busy) * dt
			if inflight > 0 && inflight < int64(sp.workers) {
				sp.join += dt
			}
			sp.span += dt
		}
	}
}

// finish stops the sampler and waits for it.
func (sp *schedSampler) finish() {
	close(sp.stop)
	<-sp.done
}

func (sp *schedSampler) idleFrac() float64 {
	return ratio(float64(sp.idle), float64(sp.span)*float64(sp.workers))
}
