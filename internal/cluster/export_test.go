package cluster

// NewProviderOver builds a factor-1 provider over in-process worker calls,
// for the external tests that serve queries through it.
func NewProviderOver(calls []func(PartialKSPRequest) (PartialKSPResponse, error)) *BatchedRemoteProvider {
	return newProvider(calls, 1, ReplicatedOptions{}, nil)
}
