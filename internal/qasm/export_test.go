package qasm

// CheckAgainstReference exposes the differential oracle to the external
// test package, whose tests build workloads with packages that import qasm.
var CheckAgainstReference = checkAgainstReference
