package core

// SetReadoutMemoCap lowers the exact read-out's memo bound for a test and
// returns the function that restores it.
func SetReadoutMemoCap(n int) (restore func()) {
	old := readoutMemoCap
	readoutMemoCap = n
	return func() { readoutMemoCap = old }
}
