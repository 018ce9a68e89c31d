package queryapi

import "time"

// SetReadHeaderTimeout replaces the query-API servers' header deadline so a
// test need not wait the production ten seconds; the returned func restores
// it.
func SetReadHeaderTimeout(d time.Duration) (restore func()) {
	old := readHeaderTimeout
	readHeaderTimeout = d
	return func() { readHeaderTimeout = old }
}

// SetIdleTimeout replaces the query-API servers' keep-alive idle deadline;
// the returned func restores it.
func SetIdleTimeout(d time.Duration) (restore func()) {
	old := idleTimeout
	idleTimeout = d
	return func() { idleTimeout = old }
}
