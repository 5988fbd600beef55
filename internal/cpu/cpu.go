// Package cpu probes the x86 vector extensions the assembly kernels run on:
// binsearch's node-search and level passes, and sortu32's probe-batch
// sorting network.  It reads CPUID and XGETBV itself, the probe sequence
// golang.org/x/sys/cpu performs, so the module stays dependency-free.  Both
// flags are fixed at init; on other architectures they are constant false.
package cpu
