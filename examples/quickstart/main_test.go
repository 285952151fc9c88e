package main

import "testing"

// TestQuickstart runs the walkthrough end to end: a log.Fatal in main
// exits the test binary non-zero and fails the package.
func TestQuickstart(t *testing.T) {
	main()
}
