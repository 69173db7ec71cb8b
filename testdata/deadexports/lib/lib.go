package lib

// T is used by cmd/app.
type T struct{}

// Used is called by cmd/app.
func (T) Used() {}

func (T) String() string { return "T" }

// Unused has no caller outside tests.
func Unused() {}

// Kept is allowlisted: only another package's tests call it.
func Kept() {}
