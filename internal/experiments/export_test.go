package experiments

// Test-only handles for the external experiments_test package, which
// also imports the service registry (and so cannot live in this package:
// service imports experiments).
var (
	SumApp      = sumApp
	Fig13Supply = fig13Supply
)
