// Package nested is the root of a separate module inside the test module.
// Recursive loads must not descend into it; if they do, the undefined name
// below surfaces as a type error.
package nested

var _ = notDefinedInNested
