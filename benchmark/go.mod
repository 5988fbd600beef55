module cssidx/benchmark

go 1.24

require cssidx v0.0.0

replace cssidx => ../
