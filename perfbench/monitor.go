package main

import (
	"time"

	"repro/internal/sched"
)

// monitor samples the shared worker pool while a traced phase runs:
// every sampleEvery it reads Busy/Size and the lease grant of one
// tenant, and every drainEvery it calls drain (emptying a trace ring
// before it overflows).
type monitor struct {
	done, stopped chan struct{}
	busy, granted float64
	n             int
}

const (
	sampleEvery = 5 * time.Millisecond
	drainEvery  = 100 * time.Millisecond
)

func startMonitor(tenant string, drain func()) *monitor {
	m := &monitor{done: make(chan struct{}), stopped: make(chan struct{})}
	pool := sched.Default()
	go func() {
		defer close(m.stopped)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		lastDrain := time.Now()
		for {
			select {
			case <-m.done:
				drain()
				return
			case now := <-tick.C:
				m.busy += float64(pool.Busy()) / float64(pool.Size())
				for _, ls := range pool.LeaseStats() {
					if ls.Name == tenant {
						m.granted += float64(ls.Granted)
					}
				}
				m.n++
				if now.Sub(lastDrain) >= drainEvery {
					drain()
					lastDrain = now
				}
			}
		}
	}()
	return m
}

// stop ends sampling, runs a final drain, waits for the sampler to
// exit and returns the mean pool busy fraction and lease grant.
func (m *monitor) stop() (busyFrac, granted float64) {
	close(m.done)
	<-m.stopped
	if m.n == 0 {
		return 0, 0
	}
	return m.busy / float64(m.n), m.granted / float64(m.n)
}
