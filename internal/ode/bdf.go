package ode

// NewBDF returns an Adams-Gear solver for one n-dimensional system: the
// one-lane case of the lockstep core (see BDF). At one lane the
// structure-of-arrays state is the plain state vector, so f and the
// Options' Jacobian callbacks run directly, with no batching layer in
// between.
func NewBDF(f Func, n int, opts Options) *BDF {
	return NewBatchBDF(BatchFunc(f), n, 1, BatchOptions{Options: opts})
}

// sign returns -1 for negative v and 1 otherwise.
func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}
