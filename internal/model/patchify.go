package model

import (
	"fmt"

	"repro/internal/tensor"
)

// Patchify converts an image batch [B, C, H, W] into per-token regression
// targets [B, T, C*P*P]: token t holds every channel's PxP patch pixels, the
// quantity the MAE decoder and the forecast head regress.
func Patchify(x *tensor.Tensor, patch int) *tensor.Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("model: Patchify wants [B,C,H,W], got %v", x.Shape))
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if h%patch != 0 || w%patch != 0 {
		panic(fmt.Sprintf("model: image %dx%d not divisible by patch %d", h, w, patch))
	}
	t := (h / patch) * (w / patch)
	d := c * patch * patch
	out := tensor.New(b, t, d)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			for y := 0; y < h; y++ {
				// Image row y is row y%patch of the patches of token row
				// y/patch: pixel px*patch+dx is element px*d+dx of dst.
				row := x.Data[((bi*c+ci)*h+y)*w:][:w]
				dst := out.Data[(bi*t+y/patch*(w/patch))*d+ci*patch*patch+y%patch*patch:]
				for i, o := 0, 0; i < w; o += d {
					for dx := 0; dx < patch; dx, i = dx+1, i+1 {
						dst[o+dx] = row[i]
					}
				}
			}
		}
	}
	return out
}

// Unpatchify inverts Patchify: tokens [B, T, C*P*P] back to images
// [B, C, H, W].
func Unpatchify(tok *tensor.Tensor, channels, imgH, imgW, patch int) *tensor.Tensor {
	if len(tok.Shape) != 3 {
		panic(fmt.Sprintf("model: Unpatchify wants [B,T,D], got %v", tok.Shape))
	}
	b := tok.Shape[0]
	ph, pw := imgH/patch, imgW/patch
	t := ph * pw
	d := channels * patch * patch
	if tok.Shape[1] != t || tok.Shape[2] != d {
		panic(fmt.Sprintf("model: Unpatchify shape %v does not match C=%d %dx%d P=%d", tok.Shape, channels, imgH, imgW, patch))
	}
	out := tensor.New(b, channels, imgH, imgW)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < channels; ci++ {
			for y := 0; y < ph*patch; y++ {
				// As in Patchify: pixel px*patch+dx of image row y is element
				// px*d+dx of src.
				row := out.Data[((bi*channels+ci)*imgH+y)*imgW:][:pw*patch]
				src := tok.Data[(bi*t+y/patch*pw)*d+ci*patch*patch+y%patch*patch:]
				for i, o := 0, 0; i < len(row); o += d {
					for dx := 0; dx < patch; dx, i = dx+1, i+1 {
						row[i] = src[o+dx]
					}
				}
			}
		}
	}
	return out
}
