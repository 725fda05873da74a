package metaserver

// WithLock runs fn with m.mu held exclusively — a control action in
// progress, as long as the test needs it to last.
func (m *Meta) WithLock(fn func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fn()
}
