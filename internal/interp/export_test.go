package interp

// RunOn is Run on a chosen executor, for the external tests: CWarp when
// compiled, else the reference Warp.
var RunOn = run
