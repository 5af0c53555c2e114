//go:build !linux

package main

// fsType names the filesystem holding dir; only Linux is recognised.
func fsType(dir string) string { return "unknown" }
