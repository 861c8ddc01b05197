package numa

// ZeroPageClean reports whether the shared zero page still reads all zeros,
// for tests outside the package.
func ZeroPageClean() bool {
	for _, w := range zeroPage {
		if w != 0 {
			return false
		}
	}
	return true
}
