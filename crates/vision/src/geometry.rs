//! Points, vectors and axis-aligned bounding boxes in image coordinates.
//!
//! All coordinates are `f32` pixels with the origin at the top-left corner,
//! `x` growing rightwards and `y` growing downwards, matching the raster
//! layout used by [`crate::image::GrayImage`].

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A 2-D point in pixel coordinates.
///
/// # Example
///
/// ```
/// use adavp_vision::geometry::{Point2, Vec2};
/// let p = Point2::new(3.0, 4.0);
/// let q = p + Vec2::new(1.0, -1.0);
/// assert_eq!(q, Point2::new(4.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Horizontal coordinate (pixels, grows rightwards).
    pub x: f32,
    /// Vertical coordinate (pixels, grows downwards).
    pub y: f32,
}

impl Point2 {
    /// Creates a point from its coordinates.
    pub fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: Point2) -> f32 {
        (*self - other).norm()
    }

    /// Squared Euclidean distance to another point (no square root).
    pub fn distance_sq(&self, other: Point2) -> f32 {
        let d = *self - other;
        d.x * d.x + d.y * d.y
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl From<(f32, f32)> for Point2 {
    fn from((x, y): (f32, f32)) -> Self {
        Self { x, y }
    }
}

/// A 2-D displacement vector in pixel coordinates.
///
/// Used for optical-flow displacements and object motion vectors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f32,
    /// Vertical component.
    pub y: f32,
}

impl Vec2 {
    /// A zero displacement.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from its components.
    pub fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// Euclidean length of the vector.
    pub fn norm(&self) -> f32 {
        (self.x * self.x + self.y * self.y).sqrt()
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.2}, {:.2}>", self.x, self.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Mul<f32> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f32) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f32> for Vec2 {
    type Output = Vec2;
    fn div(self, rhs: f32) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Add<Vec2> for Point2 {
    type Output = Point2;
    fn add(self, rhs: Vec2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub<Point2> for Point2 {
    type Output = Vec2;
    fn sub(self, rhs: Point2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

/// An axis-aligned bounding box, stored as `(left, top, width, height)` —
/// the 4-tuple representation used throughout the AdaVP paper.
///
/// Width and height must be non-negative; boxes with zero width or height
/// are valid but have zero [`area`](BoundingBox::area).
///
/// # Example
///
/// ```
/// use adavp_vision::geometry::BoundingBox;
/// let a = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
/// let b = BoundingBox::new(5.0, 5.0, 10.0, 10.0);
/// let iou = a.iou(&b);
/// assert!((iou - 25.0 / 175.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BoundingBox {
    /// Left edge (x of top-left corner).
    pub left: f32,
    /// Top edge (y of top-left corner).
    pub top: f32,
    /// Horizontal extent.
    pub width: f32,
    /// Vertical extent.
    pub height: f32,
}

impl BoundingBox {
    /// Creates a box from `(left, top, width, height)`.
    ///
    /// Negative width/height are clamped to zero.
    pub fn new(left: f32, top: f32, width: f32, height: f32) -> Self {
        Self {
            left,
            top,
            width: width.max(0.0),
            height: height.max(0.0),
        }
    }

    /// Creates a box centred on `center` with the given size.
    pub fn from_center(center: Point2, width: f32, height: f32) -> Self {
        Self::new(
            center.x - width / 2.0,
            center.y - height / 2.0,
            width,
            height,
        )
    }

    /// Right edge (exclusive).
    pub fn right(&self) -> f32 {
        self.left + self.width
    }

    /// Bottom edge (exclusive).
    pub fn bottom(&self) -> f32 {
        self.top + self.height
    }

    /// Centre point of the box.
    pub fn center(&self) -> Point2 {
        Point2::new(self.left + self.width / 2.0, self.top + self.height / 2.0)
    }

    /// Area in square pixels.
    pub fn area(&self) -> f32 {
        self.width * self.height
    }

    /// Whether the box has zero area.
    pub fn is_empty(&self) -> bool {
        self.width <= 0.0 || self.height <= 0.0
    }

    /// Whether `p` lies inside the box (edges inclusive on left/top,
    /// exclusive on right/bottom).
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.left && p.x < self.right() && p.y >= self.top && p.y < self.bottom()
    }

    /// Intersection of two boxes, or `None` when they do not overlap.
    pub fn intersection(&self, other: &BoundingBox) -> Option<BoundingBox> {
        let left = self.left.max(other.left);
        let top = self.top.max(other.top);
        let right = self.right().min(other.right());
        let bottom = self.bottom().min(other.bottom());
        if right > left && bottom > top {
            Some(BoundingBox::new(left, top, right - left, bottom - top))
        } else {
            None
        }
    }

    /// Smallest box containing both boxes.
    pub fn union_bounds(&self, other: &BoundingBox) -> BoundingBox {
        let left = self.left.min(other.left);
        let top = self.top.min(other.top);
        let right = self.right().max(other.right());
        let bottom = self.bottom().max(other.bottom());
        BoundingBox::new(left, top, right - left, bottom - top)
    }

    /// Intersection-over-union (Eq. 2 of the AdaVP paper).
    ///
    /// Returns a value in `[0, 1]`; `0` when the boxes are disjoint or both
    /// empty.
    pub fn iou(&self, other: &BoundingBox) -> f32 {
        let inter = match self.intersection(other) {
            Some(r) => r.area(),
            None => return 0.0,
        };
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// The box translated by displacement `v` — how the tracker shifts a
    /// detected box by the object's motion vector.
    pub fn translated(&self, v: Vec2) -> BoundingBox {
        BoundingBox::new(self.left + v.x, self.top + v.y, self.width, self.height)
    }

    /// The box scaled about its centre by `factor` (`> 1` grows).
    pub fn scaled(&self, factor: f32) -> BoundingBox {
        let c = self.center();
        BoundingBox::from_center(c, self.width * factor, self.height * factor)
    }

    /// The box clipped to the image rectangle `[0, w) x [0, h)`.
    ///
    /// Returns `None` when the box lies fully outside the image.
    pub fn clipped(&self, w: f32, h: f32) -> Option<BoundingBox> {
        let c = self.intersection(&BoundingBox::new(0.0, 0.0, w, h))?;
        // `(left + width) - left` can round one ulp above `width`; a clipped
        // box never outgrows the box it was cut from.
        Some(BoundingBox::new(
            c.left,
            c.top,
            c.width.min(self.width),
            c.height.min(self.height),
        ))
    }
}

impl fmt::Display for BoundingBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.1},{:.1} {:.1}x{:.1}]",
            self.left, self.top, self.width, self.height
        )
    }
}

/// A half-open integer pixel rectangle `[x0, x1) x [y0, y1)`.
///
/// Used to state which pixels of an image (or pyramid level) a kernel
/// reads. It may extend past the image or be empty; consumers clip it.
///
/// # Example
///
/// ```
/// use adavp_vision::geometry::PixelRect;
/// let r = PixelRect::new(-3, 2, 5, 4);
/// assert_eq!(r.clipped(4, 10), Some(PixelRect::new(0, 2, 4, 4)));
/// assert_eq!(PixelRect::new(8, 0, 9, 1).clipped(4, 10), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelRect {
    /// First column.
    pub x0: i64,
    /// First row.
    pub y0: i64,
    /// One past the last column.
    pub x1: i64,
    /// One past the last row.
    pub y1: i64,
}

impl PixelRect {
    /// Creates the rectangle `[x0, x1) x [y0, y1)`.
    pub fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Self {
        Self { x0, y0, x1, y1 }
    }

    /// The part of the rectangle inside a `w x h` image, or `None` when
    /// they do not overlap.
    pub fn clipped(&self, w: u32, h: u32) -> Option<PixelRect> {
        let c = PixelRect::new(
            self.x0.max(0),
            self.y0.max(0),
            self.x1.min(w as i64),
            self.y1.min(h as i64),
        );
        (c.x0 < c.x1 && c.y0 < c.y1).then_some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let p = Point2::new(1.0, 2.0);
        let q = Point2::new(4.0, 6.0);
        let v = q - p;
        assert_eq!(v, Vec2::new(3.0, 4.0));
        assert_eq!(v.norm(), 5.0);
        assert_eq!(p + v, q);
        assert_eq!(p.distance(q), 5.0);
        assert_eq!(p.distance_sq(q), 25.0);
    }

    #[test]
    fn vec_ops() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
        let mut c = a;
        c += b;
        assert_eq!(c, Vec2::new(4.0, 1.0));
        assert_eq!(Vec2::ZERO.norm(), 0.0);
    }

    #[test]
    fn bbox_basics() {
        let b = BoundingBox::new(10.0, 20.0, 30.0, 40.0);
        assert_eq!(b.right(), 40.0);
        assert_eq!(b.bottom(), 60.0);
        assert_eq!(b.center(), Point2::new(25.0, 40.0));
        assert_eq!(b.area(), 1200.0);
        assert!(!b.is_empty());
        assert!(b.contains(Point2::new(10.0, 20.0)));
        assert!(!b.contains(Point2::new(40.0, 20.0)));
    }

    #[test]
    fn bbox_negative_size_clamped() {
        let b = BoundingBox::new(0.0, 0.0, -5.0, 10.0);
        assert_eq!(b.width, 0.0);
        assert!(b.is_empty());
        assert_eq!(b.area(), 0.0);
    }

    #[test]
    fn bbox_intersection_union() {
        let a = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        let b = BoundingBox::new(5.0, 5.0, 10.0, 10.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, BoundingBox::new(5.0, 5.0, 5.0, 5.0));
        let u = a.union_bounds(&b);
        assert_eq!(u, BoundingBox::new(0.0, 0.0, 15.0, 15.0));

        let c = BoundingBox::new(100.0, 100.0, 5.0, 5.0);
        assert!(a.intersection(&c).is_none());
        assert_eq!(a.iou(&c), 0.0);
    }

    #[test]
    fn iou_identical_is_one() {
        let a = BoundingBox::new(3.0, 4.0, 7.0, 9.0);
        assert!((a.iou(&a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn iou_empty_boxes() {
        let a = BoundingBox::new(0.0, 0.0, 0.0, 0.0);
        assert_eq!(a.iou(&a), 0.0);
    }

    #[test]
    fn translate_scale_clip() {
        let b = BoundingBox::new(10.0, 10.0, 10.0, 10.0);
        let t = b.translated(Vec2::new(-5.0, 5.0));
        assert_eq!(t, BoundingBox::new(5.0, 15.0, 10.0, 10.0));

        let s = b.scaled(2.0);
        assert_eq!(s, BoundingBox::new(5.0, 5.0, 20.0, 20.0));

        let off = BoundingBox::new(-20.0, -20.0, 5.0, 5.0);
        assert!(off.clipped(100.0, 100.0).is_none());
        let partial = BoundingBox::new(-5.0, -5.0, 10.0, 10.0)
            .clipped(100.0, 100.0)
            .unwrap();
        assert_eq!(partial, BoundingBox::new(0.0, 0.0, 5.0, 5.0));
    }

    #[test]
    fn clipping_a_box_inside_the_frame_keeps_its_size() {
        // Here (left + width) - left rounds to 97.335846, one ulp wide.
        let inside = BoundingBox::new(176.44852, 161.54622, 97.33583, 76.93928);
        assert_eq!(inside.clipped(311.911, 290.3909), Some(inside));
    }

    #[test]
    fn display_impls() {
        assert_eq!(format!("{}", Point2::new(1.0, 2.0)), "(1.00, 2.00)");
        assert_eq!(format!("{}", Vec2::new(1.0, 2.0)), "<1.00, 2.00>");
        assert_eq!(
            format!("{}", BoundingBox::new(1.0, 2.0, 3.0, 4.0)),
            "[1.0,2.0 3.0x4.0]"
        );
    }
}
