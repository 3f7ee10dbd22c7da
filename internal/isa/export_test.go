package isa

// For parse_test.go, an external test package so that it can take its seeds
// and inputs from the benchmark kernels (package kernels imports isa).
var (
	ParseInstr       = parseInstr
	LegacyParseInstr = legacyParseInstr
)
