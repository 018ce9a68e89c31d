package fleet

// SetMaxBody lowers the per-instance response limit (maxInstanceBody) so a
// test can run a body past it without streaming 64 MB.
func (f *Frontend) SetMaxBody(n int64) { f.maxBody = n }
