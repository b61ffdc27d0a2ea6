package codegen

// CheckAgainstReference exposes checkAgainstReference to the external
// test package, which can import packages that import codegen.
var CheckAgainstReference = checkAgainstReference
