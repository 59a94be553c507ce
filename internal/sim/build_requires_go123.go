//go:build !go1.23

package sim

// Process resumes through iter.Pull, which arrived in Go 1.23. This file
// is compiled only by older toolchains, and exists to stop the build with
// an error that says so. It is a type declaration, in a file that sorts
// first, so that the compiler reports it before anything else.
type _ pushpull_requires_Go_1_23_or_newer_for_iter_Pull
