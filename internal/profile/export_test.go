package profile

// CollectReference exports the per-event reference profiler to the
// external tests.
var CollectReference = collectReference
