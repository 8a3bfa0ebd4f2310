package rack

import (
	"sync"
	"sync/atomic"
)

// workerPool runs the rack's host phase across a fixed set of goroutines.
// Workers are persistent and block on a channel between phases — no
// spinning — so an idle pool costs nothing; the caller participates in
// every phase, so a pool of size n-1 yields n-way parallelism.
type workerPool struct {
	tasks chan poolTask
	size  int
}

// poolTask is one phase: fn applied to indices [0, n), distributed by
// atomic index stealing so uneven per-index costs balance automatically.
type poolTask struct {
	fn  func(int)
	idx *atomic.Int64
	n   int64
	wg  *sync.WaitGroup
}

// newWorkerPool starts a pool of size helper goroutines.
func newWorkerPool(size int) *workerPool {
	p := &workerPool{size: size, tasks: make(chan poolTask)}
	for w := 0; w < size; w++ {
		go func() {
			for t := range p.tasks {
				for {
					i := t.idx.Add(1) - 1
					if i >= t.n {
						break
					}
					t.fn(int(i))
				}
				t.wg.Done()
			}
		}()
	}
	return p
}

// Run applies fn to every index in [0, n) across the pool plus the calling
// goroutine, returning when all calls have completed (the phase barrier).
func (p *workerPool) Run(n int, fn func(int)) {
	var idx atomic.Int64
	var wg sync.WaitGroup
	helpers := p.size
	if helpers > n-1 {
		helpers = n - 1
	}
	wg.Add(helpers)
	t := poolTask{fn: fn, idx: &idx, n: int64(n), wg: &wg}
	for w := 0; w < helpers; w++ {
		p.tasks <- t
	}
	for {
		i := idx.Add(1) - 1
		if i >= int64(n) {
			break
		}
		fn(int(i))
	}
	wg.Wait()
}

// Close releases the pool's goroutines. Safe on a nil pool.
func (p *workerPool) Close() {
	if p != nil {
		close(p.tasks)
	}
}
