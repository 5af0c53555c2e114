package server

// Internal test helpers for the external merge tests.
var (
	WriteBothWays   = writeBothWays
	LegacyDirs      = legacyDirs
	RichFingerprint = richFingerprint
	Format6Records  = format6Records
	UpgradeFile     = upgradeFile

	LegacyAggregateDir    = legacyAggregateDir
	UnsequencedUploadDirs = unsequencedUploadDirs
	LowerRecordChunkBytes = lowerRecordChunkBytes
)
