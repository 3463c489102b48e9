//! Frame I/O and overlay drawing.
//!
//! The paper's overlay drawer paints bounding boxes on each frame before
//! display (§IV-A). This module provides the equivalent for offline
//! inspection: draw labeled boxes onto a frame and write it as a binary PGM
//! (readable by any image viewer), plus a PGM reader so real grayscale
//! frames can be imported into the pipeline.

use crate::clip::VideoClip;
use adavp_vision::geometry::BoundingBox;
use adavp_vision::image::GrayImage;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

/// Draws rectangle outlines (2 px thick) onto a copy of `image`.
///
/// Each entry pairs a box with the outline intensity to draw it in.
/// Boxes are clipped to the image; fully-outside boxes are ignored.
pub fn draw_boxes(image: &GrayImage, boxes: &[(BoundingBox, u8)]) -> GrayImage {
    let mut out = image.clone();
    let w = image.width() as i64;
    let h = image.height() as i64;
    for (b, tone) in boxes {
        let x0 = b.left.round() as i64;
        let y0 = b.top.round() as i64;
        let x1 = b.right().round() as i64;
        let y1 = b.bottom().round() as i64;
        for t in 0..2i64 {
            // Horizontal edges.
            for x in x0.max(0)..x1.min(w) {
                for &y in &[y0 + t, y1 - 1 - t] {
                    if (0..h).contains(&y) {
                        out.set(x as u32, y as u32, *tone);
                    }
                }
            }
            // Vertical edges.
            for y in y0.max(0)..y1.min(h) {
                for &x in &[x0 + t, x1 - 1 - t] {
                    if (0..w).contains(&x) {
                        out.set(x as u32, y as u32, *tone);
                    }
                }
            }
        }
    }
    out
}

/// Writes `image` as a binary PGM (P5, maxval 255).
///
/// # Errors
///
/// Propagates any I/O error (including failure to create parent dirs).
pub fn write_pgm(image: &GrayImage, path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut f = fs::File::create(path)?;
    write!(f, "P5\n{} {}\n255\n", image.width(), image.height())?;
    f.write_all(image.as_bytes())?;
    Ok(())
}

/// Reads a binary PGM (P5, maxval ≤ 255) written by [`write_pgm`] or any
/// standard tool.
///
/// # Errors
///
/// Returns `InvalidData` for malformed headers or truncated pixel data.
pub fn read_pgm(path: &Path) -> io::Result<GrayImage> {
    let mut bytes = Vec::new();
    fs::File::open(path)?.read_to_end(&mut bytes)?;
    parse_pgm(&bytes)
}

/// Parses the bytes of a binary PGM (see [`read_pgm`]).
///
/// # Errors
///
/// Returns `InvalidData` for malformed headers or truncated pixel data.
pub fn parse_pgm(bytes: &[u8]) -> io::Result<GrayImage> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut pos = 0usize;
    let mut token = |bytes: &[u8]| -> io::Result<String> {
        // Skip whitespace and comments.
        loop {
            while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if pos < bytes.len() && bytes[pos] == b'#' {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            } else {
                break;
            }
        }
        let start = pos;
        while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if start == pos {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "truncated header",
            ));
        }
        Ok(String::from_utf8_lossy(&bytes[start..pos]).into_owned())
    };

    if token(bytes)? != "P5" {
        return Err(bad("not a binary PGM (P5)"));
    }
    let width: u32 = token(bytes)?.parse().map_err(|_| bad("bad width"))?;
    let height: u32 = token(bytes)?.parse().map_err(|_| bad("bad height"))?;
    let maxval: u32 = token(bytes)?.parse().map_err(|_| bad("bad maxval"))?;
    if maxval == 0 || maxval > 255 {
        return Err(bad("unsupported maxval"));
    }
    // Exactly one whitespace byte after maxval.
    pos += 1;
    let need = width as usize * height as usize;
    if bytes.len() < pos + need {
        return Err(bad("truncated pixel data"));
    }
    GrayImage::from_raw(width, height, bytes[pos..pos + need].to_vec())
        .ok_or_else(|| bad("dimension mismatch"))
}

/// Writes every `stride`-th frame of a clip (with its ground-truth boxes
/// outlined in white) into `dir` as `frame_NNNNN.pgm`.
///
/// Returns the number of files written.
///
/// # Errors
///
/// Propagates any I/O error.
pub fn export_clip(clip: &VideoClip, dir: &Path, stride: usize) -> io::Result<usize> {
    let stride = stride.max(1);
    let mut written = 0;
    for frame in clip.iter().step_by(stride) {
        let boxes: Vec<(BoundingBox, u8)> =
            frame.ground_truth.iter().map(|g| (g.bbox, 255u8)).collect();
        let img = draw_boxes(&frame.image, &boxes);
        write_pgm(&img, &dir.join(format!("frame_{:05}.pgm", frame.index)))?;
        written += 1;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("adavp_export_tests").join(name);
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn pgm_round_trip() {
        let img = GrayImage::from_fn(13, 7, |x, y| (x * 17 + y * 3) as u8);
        let dir = tmp_dir("roundtrip");
        let path = dir.join("img.pgm");
        write_pgm(&img, &path).unwrap();
        let back = read_pgm(&path).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn pgm_parser_rejects_garbage() {
        assert!(parse_pgm(b"P6\n2 2\n255\nxxxx").is_err());
        assert!(parse_pgm(b"P5\n2 2\n255\nxx").is_err()); // truncated
        assert!(parse_pgm(b"P5\n2 2\n70000\n").is_err()); // maxval
        assert!(parse_pgm(b"P5\n").is_err());
    }

    #[test]
    fn pgm_parser_handles_comments() {
        let mut data = b"P5\n# a comment\n2 1\n255\n".to_vec();
        data.extend_from_slice(&[7, 9]);
        let img = parse_pgm(&data).unwrap();
        assert_eq!(img.get(0, 0), 7);
        assert_eq!(img.get(1, 0), 9);
    }

    #[test]
    fn draw_boxes_outlines_without_filling() {
        let img = GrayImage::from_fn(40, 30, |_, _| 100);
        let b = BoundingBox::new(10.0, 8.0, 16.0, 12.0);
        let out = draw_boxes(&img, &[(b, 255)]);
        // Outline pixels changed...
        assert_eq!(out.get(10, 8), 255);
        assert_eq!(out.get(25, 19), 255);
        // ...interior untouched...
        assert_eq!(out.get(18, 14), 100);
        // ...and the original image is unchanged.
        assert_eq!(img.get(10, 8), 100);
    }

    #[test]
    fn draw_boxes_clips_safely() {
        let img = GrayImage::from_fn(20, 20, |_, _| 50);
        // Partially and fully outside boxes must not panic.
        let _ = draw_boxes(
            &img,
            &[
                (BoundingBox::new(-5.0, -5.0, 10.0, 10.0), 200),
                (BoundingBox::new(100.0, 100.0, 5.0, 5.0), 200),
            ],
        );
    }

    #[test]
    fn export_clip_writes_strided_frames() {
        let mut spec = Scenario::Highway.spec();
        spec.width = 64;
        spec.height = 36;
        spec.size_range = (10.0, 16.0);
        let clip = VideoClip::generate("exp", &spec, 3, 10);
        let dir = tmp_dir("clip");
        let n = export_clip(&clip, &dir, 3).unwrap();
        assert_eq!(n, 4); // frames 0, 3, 6, 9
        assert!(dir.join("frame_00000.pgm").exists());
        assert!(dir.join("frame_00009.pgm").exists());
        let img = read_pgm(&dir.join("frame_00000.pgm")).unwrap();
        assert_eq!((img.width(), img.height()), (64, 36));
        let _ = fs::remove_dir_all(dir);
    }
}
