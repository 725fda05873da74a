//go:build !race

package abase

const raceEnabled = false
