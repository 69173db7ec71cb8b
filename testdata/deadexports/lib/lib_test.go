package lib

import "testing"

// A test reference does not keep Unused alive.
func TestUnused(t *testing.T) { Unused() }
