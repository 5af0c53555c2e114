package server

// WriteBothWays exposes writeBothWays to the external merge test.
var WriteBothWays = writeBothWays
