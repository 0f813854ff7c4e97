//go:build !race

package fpc

const raceEnabled = false
