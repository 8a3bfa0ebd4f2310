// Package allocdeep exercises alloccheck's summary fixpoint: an
// allocation at the end of a helper chain declared callers-first, so each
// summary round resolves only one more level of the chain, and a
// recursive pair whose summaries must still converge.
package allocdeep

import "fmt"

//lint:allocfree the chain below ends in fmt.Sprintf, five calls down
func root(n int) int {
	return h1(n) // want `call to h1 allocates in hot path \(.*call to h2 allocates.*call to fmt\.Sprintf allocates in hot path`
}

func h1(n int) int { return h2(n) + 1 }

func h2(n int) int { return h3(n) + 1 }

func h3(n int) int { return h4(n) + 1 }

func h4(n int) int { return h5(n) + 1 }

func h5(n int) int { return len(fmt.Sprintf("%d", n)) }

//lint:allocfree the recursion below allocates on its base case
func recRoot(n int) int {
	return ping(n) // want `call to ping allocates in hot path`
}

// ping reaches its allocation through pong before its own base case, so
// its first proof of allocation nests pong's, which nests ping's again.
func ping(n int) int {
	if n > 0 {
		return pong(n - 1)
	}
	return len(fmt.Sprint(n))
}

func pong(n int) int { return ping(n) }
