// Package numutil provides the numerical routines the likelihood machinery
// is built on: a symmetric Jacobi eigensolver (used to diagonalize reversible
// substitution-rate matrices), Brent's method for one-dimensional function
// minimization as a resumable stepper (model-parameter optimization), and
// special functions (regularized incomplete gamma, gamma and normal
// quantiles, needed for the discrete-Γ model of rate heterogeneity).
//
// Everything is implemented from scratch on top of the standard library so
// the repository has no external dependencies.
package numutil
