package engine

// RunReference runs the instances through the reference kernel
// (reference_test.go) for the external equivalence tests.
var RunReference = runReference
