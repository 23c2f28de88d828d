// Package inner lives below the nested module's root and must be skipped
// with it.
package inner
