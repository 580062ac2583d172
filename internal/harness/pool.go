package harness

import "sync"

// Pool is a persistent pool of worker goroutines fed integer task indices.
// It exists for the round engine's shard stepping: a fixed worker count, one
// batch of tasks per round, and a hard requirement that task results land
// in caller-owned, index-addressed storage so parallel execution stays
// bit-identical to serial. Spawning a goroutine per task
// dominated parallel runs before the pooled design; the pool starts its
// workers once per execution and feeds them indices.
//
// Usage: schedule a batch with Do, barrier with Wait, repeat; Close when
// the execution ends. The run callback must write only to per-index state.
type Pool struct {
	tasks chan int
	wg    sync.WaitGroup
	run   func(i int)
}

// NewPool starts workers goroutines executing run on submitted indices.
// Worker counts below one are clamped to one.
func NewPool(workers int, run func(i int)) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{tasks: make(chan int, 4*workers), run: run}
	for w := 0; w < workers; w++ {
		go func() {
			for i := range p.tasks {
				p.run(i)
				p.wg.Done()
			}
		}()
	}
	return p
}

// Do schedules task i; pair every batch of Do calls with one Wait.
func (p *Pool) Do(i int) {
	p.wg.Add(1)
	p.tasks <- i
}

// Wait blocks until all scheduled tasks have finished.
func (p *Pool) Wait() { p.wg.Wait() }

// Close shuts the workers down; the pool must be idle.
func (p *Pool) Close() { close(p.tasks) }
