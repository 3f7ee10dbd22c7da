package sim

// Backend selects the one-lane execution engine behind the timing model.
//
// Both backends step the same binaries through the same issue, cache,
// DRAM, and energy model; they differ only in how each warp's next
// instruction is produced and committed:
//
//   - BackendCompiled translates every function once into pre-resolved
//     event templates, each with a static per-opcode handler (package
//     interp's CWarp). It is the zero value: every Config that does not
//     say otherwise runs it.
//   - BackendInterp steps the reference interpreter (interp.Warp). It
//     is the reference semantics, selected per call through
//     Config.Backend by the differential oracles (verify.CrossBackend,
//     the sim tests).
//
// The two are required to be bit-identical on Stats fingerprints and
// fault behavior; verify.CrossBackend and the sim differential tests
// enforce that. A lane-variant kernel (one that reads LANEID) is outside
// the choice: nothing is compiled for it, and interp.Warp runs it at 32
// lanes under either value.
type Backend uint8

const (
	// BackendCompiled executes the compiled templates and handlers.
	BackendCompiled Backend = iota
	// BackendInterp executes the reference interpreter.
	BackendInterp
)

// String names the backend.
func (b Backend) String() string {
	if b == BackendCompiled {
		return "compiled"
	}
	return "interp"
}

// DefaultBackend is the backend a Config runs when it leaves Backend unset.
func DefaultBackend() Backend { return BackendCompiled }
