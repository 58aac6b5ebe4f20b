// Package randfix is the pdflint fixture for the rand analyzer: the
// deterministic packages must not draw from the unseeded global
// math/rand source.
package randfix

import "math/rand"

// Bad draws from the process-global source.
func Bad() int {
	n := rand.Intn(10)                 // want `unseeded math/rand.Intn`
	rand.Shuffle(n, func(i, j int) {}) // want `unseeded math/rand.Shuffle`
	return n + int(rand.Int63())       // want `unseeded math/rand.Int63`
}

// Good uses an explicitly seeded generator.
func Good(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// Suppressed demonstrates //lint:ignore with a recorded reason.
func Suppressed() float64 {
	//lint:ignore rand fixture demonstrates suppression
	return rand.Float64()
}

// pkgDraw draws from the global source in a package-level initializer.
var pkgDraw = rand.Intn(3) // want `unseeded math/rand.Intn`

// litDraw draws from the global source inside a package-level literal.
var litDraw = func() int { return rand.Intn(4) } // want `unseeded math/rand.Intn`

// BadClauses draws in a switch case expression and a loop post
// statement.
func BadClauses(n int) int {
	switch {
	case rand.Intn(2) == 0: // want `unseeded math/rand.Intn`
		n++
	}
	for i := 0; i < n; i += rand.Intn(3) { // want `unseeded math/rand.Intn`
	}
	return n
}

type worker struct{}

func (worker) run() {}

func newWorker(int) worker { return worker{} }

// BadOperands draws in a select case operand, a type switch's init
// statement and the function value of a go statement: all are
// evaluated by the enclosing function.
func BadOperands(ch chan int) {
	select {
	case ch <- rand.Intn(5): // want `unseeded math/rand.Intn`
	default:
	}
	switch v := rand.Intn(6); any(v).(type) { // want `unseeded math/rand.Intn`
	case int:
	}
	go newWorker(rand.Intn(7)).run() // want `unseeded math/rand.Intn`
}
