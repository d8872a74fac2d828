// The benchmark is a module of its own so that `go build ./...` and
// `go test ./...` at the repository root never compile or run it; the import
// path sits under kspdg/, which is what lets it import kspdg/internal/....
module kspdg/benchmark

go 1.24

require kspdg v0.0.0

replace kspdg => ../
