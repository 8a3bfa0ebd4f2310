// Phase-isolation fixtures: workers handed to pool.Pool.Run (a configured
// spawner) may only touch state derived from their worker index. The
// spawner table also names a method this package does not declare.
package phasefix // want `spawner phasefix.system.fork names no function declared in phasefix`

import "pool"

type core struct{ cycles int64 }

func (c *core) tick() { c.cycles++ }

type system struct {
	pool   *pool.Pool
	cores  []core
	next   []int64
	shared int64
	stamp  int64
}

func (s *system) countUp() { s.shared++ }

// limit is write-free, so workers may call it.
func limit(v, hi int64) int64 {
	if v > hi {
		return hi
	}
	return v
}

// tickPar is the clean direct-index pattern.
func (s *system) tickPar(now int64) {
	s.pool.Run(len(s.cores), func(i int) {
		s.cores[i].tick()
		s.next[i] = now + 1
	})
}

// tickDuePar derives the element index from the worker index (i := due[k]).
func (s *system) tickDuePar(due []int) {
	s.pool.Run(len(due), func(k int) {
		i := due[k]
		s.cores[i].tick()
		s.next[i] = limit(s.next[i]+1, 1<<40)
	})
}

// locals inside the worker are always fair game.
func (s *system) scratch() {
	s.pool.Run(len(s.cores), func(i int) {
		sum := int64(0)
		sum += s.next[i]
		_ = sum
	})
}

// races shows every flavour of cross-worker sharing the analyzer rejects.
func (s *system) races(now int64) {
	s.pool.Run(len(s.cores), func(i int) {
		s.cores[i].tick()
		s.shared++    // want `mutates shared state not derived from its worker index`
		s.stamp = now // want `writes shared state not derived from its worker index`
		s.countUp()   // want `calls countUp, which mutates state not derived from the worker index`
	})
}

// goroutine bodies in scope packages are held to the same rules.
func (s *system) spawn() {
	go func() {
		s.shared++ // want `mutates shared state not derived from its worker index`
	}()
}
