package stats

// ReferenceColumnStats hands the buffered reference implementation to the
// external tests of this package (feeders_test.go), which need the engine and
// so cannot live inside it.
var ReferenceColumnStats = referenceColumnStats
