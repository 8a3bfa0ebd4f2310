// Package lockdeep exercises lockcheck's summary fixpoint: a chain of six
// helpers declared callers-first, the last reading a guarded field, so
// each summary round infers the lock requirement one level further up.
package lockdeep

import "sync"

type counter struct {
	mu sync.Mutex
	//lint:guardedby mu
	n int
}

// read calls the chain once without mu and once under it. Because read
// locks mu itself, the unlocked call is a local bug.
func (c *counter) read() int {
	v := c.h1() // want `call to h1 requires mu, which is not held`
	c.mu.Lock()
	v += c.h1()
	c.mu.Unlock()
	return v
}

func (c *counter) h1() int { return c.h2() }

func (c *counter) h2() int { return c.h3() }

func (c *counter) h3() int { return c.h4() }

func (c *counter) h4() int { return c.h5() }

func (c *counter) h5() int { return c.h6() }

func (c *counter) h6() int { return c.n }
