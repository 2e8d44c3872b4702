package nn

import "fmt"

// registry is the set of models the command-line tools accept by name, in
// the order their help text lists them.
var registry = []struct {
	name  string
	build func() *Model
}{
	{"toy", func() *Model { return ToyChain("toy", 8, 3, 16, 64) }},
	{"fig13toy", Fig13Toy},
	{"vgg16", VGG16},
	{"yolov2", YOLOv2},
	{"resnet34", ResNet34},
	{"inceptionv3", InceptionV3},
	{"mobilenetv1", MobileNetV1},
}

// ByName builds the registered model of the given name.
func ByName(name string) (*Model, error) {
	for _, r := range registry {
		if r.name == name {
			return r.build(), nil
		}
	}
	return nil, fmt.Errorf("unknown model %q", name)
}

// Names lists the registered model names.
func Names() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.name
	}
	return names
}
