package trace

// StatesBuilt reports whether s's chain-state column has bucketed any
// sample, for tests outside the package.
func StatesBuilt(s *Series) bool {
	c := s.col.Load()
	return c != nil && c.snap.Load() != nil
}
