//go:build !race

package wsa

const raceBuild = false
