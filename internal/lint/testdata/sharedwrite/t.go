// Package sharedwrite is golden-test input for the sharedwrite analyzer.
// pool stands in for the engine pool's submit primitive (named in the
// test's Runners config), so closures passed to it are held to the same
// confinement rules as go-statement bodies.
package sharedwrite

import "sync"

type acc struct{ n int }

// pool is the configured worker-pool primitive.
func pool(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func fanOut(n int) []float64 {
	out := make([]float64, n)
	done := 0
	guarded := 0
	var mu sync.Mutex
	pool(n, func(i int) {
		out[i] = float64(i) // per-index slot keyed by the worker's own index: confined
		done++              // want "unconfined write to captured variable done from a worker callback passed to pool"
		mu.Lock()
		guarded++ // serialized under the mutex: fine
		mu.Unlock()
	})
	_ = done
	_ = guarded
	return out
}

func goStmt(results []int, i int) {
	sum := 0
	go func() {
		results[i] = 1 // want "unconfined write to captured element of results through an outside index"
		sum++          // want "unconfined write to captured variable sum from a go statement"
	}()
	_ = sum
}

// confinedLoop indexes with a variable declared inside the literal.
func confinedLoop(results []int) {
	go func() {
		for j := range results {
			results[j] = j
		}
	}()
}

func fieldWrite(a *acc) {
	go func() {
		a.n++ // want "unconfined write to captured field a.n"
	}()
}

// deferGuard holds the mutex to the end of the literal.
func deferGuard(mu *sync.Mutex, a *acc) {
	go func() {
		mu.Lock()
		defer mu.Unlock()
		a.n++
	}()
}

func ptrWrite(p *int) {
	go func() {
		*p = 1 // want "unconfined write to captured pointee of p"
	}()
}
