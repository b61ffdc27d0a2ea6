package chem

// CheckMatchesReference exposes the reference comparison of
// canon_test.go to the package's external tests.
var CheckMatchesReference = checkMatchesReference
