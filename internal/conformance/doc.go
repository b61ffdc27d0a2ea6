// Package conformance is the cross-stack verification harness: it proves
// that every optimization layer in the compiler pipeline is
// semantics-preserving against a single unoptimized reference
// interpreter.
//
// The harness generates seeded random mass-action networks (and random
// structural RDL programs), pushes each model through every stage
// boundary, and compares results differentially:
//
//   - raw expression evaluation vs the simplify / distribute / CSE /
//     hoist rewrites (tree interpretation, exact reference semantics);
//   - the compiled tape vs the optimized tree, and dense vs CSR Jacobian
//     evaluation;
//   - dense vs sparse Newton trajectories through the stiff solver;
//   - the Go tape vs the generated-C kernel recompiled by ccomp;
//   - single-rank vs multi-rank estimator residuals under the block plan
//     and the lpt load balancer, a checkpoint-resumed run vs the
//     uninterrupted one, and the HTTP service vs the inline pipeline,
//     all exactly.
//
// It also checks metamorphic properties that need no oracle at all:
// species-permutation invariance, rate-constant/time rescaling
// equivalence, and conservation-law residuals.
//
// Failing cases shrink automatically to minimal reproducers (delta
// debugging over reactions and species) written as textual network
// files into a testdata directory; ReadNetworkFile replays them.
//
// The package is a library, not a test: cmd/rmsverify drives the same
// matrix standalone for CI smoke runs and long soak runs, and
// internal/bench/diffcheck reuses the generator for its property tests.
// See docs/testing.md for where this sits in the verification stack.
package conformance
