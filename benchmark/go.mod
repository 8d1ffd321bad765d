module mogul/benchmark

go 1.24.0

require mogul v0.0.0

replace mogul => ../
