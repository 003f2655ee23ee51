package workload

import (
	"math/rand"
	"slices"
)

// Domain is an application domain from Table 1.
type Domain string

// Application domains of Table 1.
const (
	ComputerVision    Domain = "computer-vision"
	NLP               Domain = "natural-language-processing"
	SpeechRecognition Domain = "speech-recognition"
)

// Model is a deep learning model with its approximate parameter footprint.
type Model struct {
	Name string
	// ParamBytes is the serialized parameter size (fp32).
	ParamBytes int64
	Domain     Domain
}

// Dataset is a training dataset with its approximate on-disk size.
type Dataset struct {
	Name      string
	SizeBytes int64
	Domain    Domain
}

// domainCatalog is one domain's share of the catalog.
type domainCatalog struct {
	domain   Domain
	models   []Model
	datasets []Dataset
}

// The Table 1 catalog. Read-only after package initialisation.
var (
	models = []Model{
		{Name: "vgg16", ParamBytes: 528 << 20, Domain: ComputerVision},
		{Name: "resnet18", ParamBytes: 45 << 20, Domain: ComputerVision},
		{Name: "inception_v3", ParamBytes: 92 << 20, Domain: ComputerVision},
		{Name: "bert", ParamBytes: 440 << 20, Domain: NLP},
		{Name: "gpt2", ParamBytes: 548 << 20, Domain: NLP},
		{Name: "deepspeech2", ParamBytes: 349 << 20, Domain: SpeechRecognition},
	}
	datasets = []Dataset{
		{Name: "cifar10", SizeBytes: 163 << 20, Domain: ComputerVision},
		{Name: "cifar100", SizeBytes: 161 << 20, Domain: ComputerVision},
		{Name: "tiny-imagenet", SizeBytes: 237 << 20, Domain: ComputerVision},
		{Name: "imdb", SizeBytes: 80 << 20, Domain: NLP},
		{Name: "cola", SizeBytes: 1 << 20, Domain: NLP},
		{Name: "librispeech", SizeBytes: 60 << 30, Domain: SpeechRecognition},
	}
	// byDomain holds, for each domain in Assign's draw order, its models
	// and datasets in catalog order.
	byDomain = func() (out [3]domainCatalog) {
		for i, d := range [...]Domain{ComputerVision, NLP, SpeechRecognition} {
			out[i].domain = d
			for _, m := range models {
				if m.Domain == d {
					out[i].models = append(out[i].models, m)
				}
			}
			for _, ds := range datasets {
				if ds.Domain == d {
					out[i].datasets = append(out[i].datasets, ds)
				}
			}
		}
		return out
	}()
)

// Models returns the Table 1 models with representative sizes.
func Models() []Model { return slices.Clone(models) }

// Datasets returns the Table 1 datasets with representative sizes.
func Datasets() []Dataset { return slices.Clone(datasets) }

// ModelByName finds a model in the catalog.
func ModelByName(name string) (Model, bool) {
	for _, m := range models {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}

// DatasetByName finds a dataset in the catalog.
func DatasetByName(name string) (Dataset, bool) {
	for _, d := range datasets {
		if d.Name == name {
			return d, true
		}
	}
	return Dataset{}, false
}

// Assignment pairs a model and dataset from the same domain, as the
// paper's workload driver does ("randomly assigns each client an
// application domain, after which a random dataset and model are
// assigned").
type Assignment struct {
	Domain  Domain
	Model   Model
	Dataset Dataset
}

// Assign draws a random domain-consistent model/dataset pair: three draws,
// for the domain, then the model, then the dataset. It allocates nothing;
// the simulator calls it once per session.
func Assign(r *rand.Rand) Assignment {
	d := &byDomain[r.Intn(len(byDomain))]
	return Assignment{
		Domain:  d.domain,
		Model:   d.models[r.Intn(len(d.models))],
		Dataset: d.datasets[r.Intn(len(d.datasets))],
	}
}
