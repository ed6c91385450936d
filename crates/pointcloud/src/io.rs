//! Plain-text point-cloud interchange: XYZ, ASCII PLY and ASCII PCD.
//!
//! The wire codec ([`crate::codec`]) is for vehicle-to-vehicle exchange;
//! these formats are for everything else — dumping a fused cloud for a
//! external viewer (CloudCompare, MeshLab, Open3D all read ASCII PLY),
//! or importing a captured cloud into the pipeline.

use std::io::{BufRead, Write};

use cooper_geometry::Vec3;

use crate::{Point, PointCloud};

/// Errors reading interchange files.
#[derive(Debug)]
pub enum IoFormatError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line or header, with its 1-based line number.
    Parse {
        /// Line number where parsing failed.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for IoFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoFormatError::Io(e) => write!(f, "I/O error: {e}"),
            IoFormatError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for IoFormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoFormatError::Io(e) => Some(e),
            IoFormatError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for IoFormatError {
    fn from(e: std::io::Error) -> Self {
        IoFormatError::Io(e)
    }
}

/// Writes `x y z reflectance` lines. A mutable reference works as the
/// writer (`&mut Vec<u8>`, `&mut File`, …).
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_xyz<W: Write>(cloud: &PointCloud, mut writer: W) -> Result<(), IoFormatError> {
    for p in cloud.iter() {
        writeln!(
            writer,
            "{} {} {} {}",
            p.position.x, p.position.y, p.position.z, p.reflectance
        )?;
    }
    Ok(())
}

/// Reads `x y z [reflectance]` lines (missing reflectance defaults to
/// 0.5). Empty lines and `#` comments are skipped.
///
/// # Errors
///
/// Returns [`IoFormatError::Parse`] with the offending line number for
/// malformed content.
pub fn read_xyz<R: BufRead>(reader: R) -> Result<PointCloud, IoFormatError> {
    let mut cloud = PointCloud::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        if fields.len() < 3 || fields.len() > 4 {
            return Err(IoFormatError::Parse {
                line: idx + 1,
                message: format!("expected 3 or 4 fields, got {}", fields.len()),
            });
        }
        let parse = |s: &str, what: &str| -> Result<f64, IoFormatError> {
            s.parse().map_err(|_| IoFormatError::Parse {
                line: idx + 1,
                message: format!("invalid {what}: {s:?}"),
            })
        };
        let x = parse(fields[0], "x")?;
        let y = parse(fields[1], "y")?;
        let z = parse(fields[2], "z")?;
        let reflectance = if fields.len() == 4 {
            parse(fields[3], "reflectance")? as f32
        } else {
            0.5
        };
        cloud.push(Point::new(finite_position(x, y, z, idx + 1)?, reflectance));
    }
    Ok(cloud)
}

/// Writes an ASCII PLY file with `x y z intensity` vertex properties —
/// directly loadable by CloudCompare/MeshLab/Open3D.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_ply<W: Write>(cloud: &PointCloud, mut writer: W) -> Result<(), IoFormatError> {
    writeln!(writer, "ply")?;
    writeln!(writer, "format ascii 1.0")?;
    writeln!(writer, "comment cooper point cloud")?;
    writeln!(writer, "element vertex {}", cloud.len())?;
    writeln!(writer, "property float x")?;
    writeln!(writer, "property float y")?;
    writeln!(writer, "property float z")?;
    writeln!(writer, "property float intensity")?;
    writeln!(writer, "end_header")?;
    for p in cloud.iter() {
        writeln!(
            writer,
            "{} {} {} {}",
            p.position.x as f32, p.position.y as f32, p.position.z as f32, p.reflectance
        )?;
    }
    Ok(())
}

/// Reads the ASCII PLY subset written by [`write_ply`]: vertices with at
/// least `x y z` float properties; an `intensity` property is used when
/// present, other properties and elements are ignored.
///
/// # Errors
///
/// Returns [`IoFormatError::Parse`] for missing/invalid headers or
/// truncated vertex data.
pub fn read_ply<R: BufRead>(reader: R) -> Result<PointCloud, IoFormatError> {
    let mut lines = reader.lines();
    let mut next_line = |expect: &str| -> Result<String, IoFormatError> {
        match lines.next() {
            Some(Ok(l)) => Ok(l),
            Some(Err(e)) => Err(IoFormatError::Io(e)),
            None => Err(IoFormatError::Parse {
                line: 0,
                message: format!("unexpected end of file, expected {expect}"),
            }),
        }
    };
    let magic = next_line("ply magic")?;
    if magic.trim() != "ply" {
        return Err(IoFormatError::Parse {
            line: 1,
            message: "not a PLY file".into(),
        });
    }
    let mut vertex_count: Option<usize> = None;
    let mut properties: Vec<String> = Vec::new();
    let mut in_vertex_element = false;
    let mut line_no = 1usize;
    loop {
        let line = next_line("header line")?;
        line_no += 1;
        let line = line.trim().to_string();
        if line == "end_header" {
            break;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["format", "ascii", _] | ["comment", ..] => {}
            ["format", other, ..] => {
                return Err(IoFormatError::Parse {
                    line: line_no,
                    message: format!("unsupported PLY format {other:?} (only ascii)"),
                });
            }
            ["element", "vertex", n] => {
                vertex_count = Some(n.parse().map_err(|_| IoFormatError::Parse {
                    line: line_no,
                    message: format!("bad vertex count {n:?}"),
                })?);
                in_vertex_element = true;
            }
            ["element", ..] => in_vertex_element = false,
            ["property", _ty, name] if in_vertex_element => {
                properties.push((*name).to_string());
            }
            ["property", ..] => {}
            _ => {
                return Err(IoFormatError::Parse {
                    line: line_no,
                    message: format!("unrecognized header line {line:?}"),
                });
            }
        }
    }
    let count = vertex_count.ok_or(IoFormatError::Parse {
        line: line_no,
        message: "missing `element vertex` declaration".into(),
    })?;
    let index_of = |name: &str| properties.iter().position(|p| p == name);
    let (ix, iy, iz) = match (index_of("x"), index_of("y"), index_of("z")) {
        (Some(a), Some(b), Some(c)) => (a, b, c),
        _ => {
            return Err(IoFormatError::Parse {
                line: line_no,
                message: "vertex element lacks x/y/z properties".into(),
            });
        }
    };
    let ii = index_of("intensity");

    let mut cloud = PointCloud::with_capacity(count);
    for _ in 0..count {
        let line = next_line("vertex line")?;
        line_no += 1;
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < properties.len() {
            return Err(IoFormatError::Parse {
                line: line_no,
                message: format!(
                    "vertex has {} fields, header declares {}",
                    fields.len(),
                    properties.len()
                ),
            });
        }
        let get = |i: usize, what: &str| -> Result<f64, IoFormatError> {
            fields[i].parse().map_err(|_| IoFormatError::Parse {
                line: line_no,
                message: format!("invalid {what}: {:?}", fields[i]),
            })
        };
        let (x, y, z) = (get(ix, "x")?, get(iy, "y")?, get(iz, "z")?);
        let reflectance = match ii {
            Some(i) => get(i, "intensity")? as f32,
            None => 0.5,
        };
        cloud.push(Point::new(finite_position(x, y, z, line_no)?, reflectance));
    }
    Ok(cloud)
}

/// Writes an ASCII PCD (Point Cloud Library) file with
/// `x y z intensity` fields.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_pcd<W: Write>(cloud: &PointCloud, mut writer: W) -> Result<(), IoFormatError> {
    writeln!(writer, "# .PCD v0.7 - Point Cloud Data file format")?;
    writeln!(writer, "VERSION 0.7")?;
    writeln!(writer, "FIELDS x y z intensity")?;
    writeln!(writer, "SIZE 4 4 4 4")?;
    writeln!(writer, "TYPE F F F F")?;
    writeln!(writer, "COUNT 1 1 1 1")?;
    writeln!(writer, "WIDTH {}", cloud.len())?;
    writeln!(writer, "HEIGHT 1")?;
    writeln!(writer, "VIEWPOINT 0 0 0 1 0 0 0")?;
    writeln!(writer, "POINTS {}", cloud.len())?;
    writeln!(writer, "DATA ascii")?;
    for p in cloud.iter() {
        writeln!(
            writer,
            "{} {} {} {}",
            p.position.x as f32, p.position.y as f32, p.position.z as f32, p.reflectance
        )?;
    }
    Ok(())
}

/// Reads the ASCII PCD subset written by [`write_pcd`]: `FIELDS`
/// containing at least `x y z` (an `intensity` field is used when
/// present), `DATA ascii`.
///
/// # Errors
///
/// Returns [`IoFormatError::Parse`] for binary PCD, missing fields or
/// truncated data.
pub fn read_pcd<R: BufRead>(reader: R) -> Result<PointCloud, IoFormatError> {
    let mut fields: Vec<String> = Vec::new();
    let mut points: Option<usize> = None;
    let mut cloud = PointCloud::new();
    let mut in_data = false;
    let mut read_so_far = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if !in_data {
            let parts: Vec<&str> = trimmed.split_whitespace().collect();
            match parts.as_slice() {
                ["FIELDS", rest @ ..] => {
                    fields = rest.iter().map(|s| s.to_string()).collect();
                }
                ["POINTS", n] => {
                    points = Some(n.parse().map_err(|_| IoFormatError::Parse {
                        line: line_no,
                        message: format!("bad POINTS count {n:?}"),
                    })?);
                }
                ["DATA", "ascii"] => {
                    if fields.is_empty() || points.is_none() {
                        return Err(IoFormatError::Parse {
                            line: line_no,
                            message: "DATA before FIELDS/POINTS".into(),
                        });
                    }
                    in_data = true;
                }
                ["DATA", other] => {
                    return Err(IoFormatError::Parse {
                        line: line_no,
                        message: format!("unsupported PCD data {other:?} (only ascii)"),
                    });
                }
                // VERSION/SIZE/TYPE/COUNT/WIDTH/HEIGHT/VIEWPOINT are
                // informational for the ascii subset.
                _ => {}
            }
            continue;
        }
        let values: Vec<&str> = trimmed.split_whitespace().collect();
        if values.len() < fields.len() {
            return Err(IoFormatError::Parse {
                line: line_no,
                message: format!(
                    "point has {} fields, header declares {}",
                    values.len(),
                    fields.len()
                ),
            });
        }
        let get = |name: &str| -> Option<Result<f64, IoFormatError>> {
            fields.iter().position(|f| f == name).map(|i| {
                values[i].parse().map_err(|_| IoFormatError::Parse {
                    line: line_no,
                    message: format!("invalid {name}: {:?}", values[i]),
                })
            })
        };
        let (x, y, z) = match (get("x"), get("y"), get("z")) {
            (Some(x), Some(y), Some(z)) => (x?, y?, z?),
            _ => {
                return Err(IoFormatError::Parse {
                    line: line_no,
                    message: "PCD lacks x/y/z fields".into(),
                })
            }
        };
        let reflectance = match get("intensity") {
            Some(v) => v? as f32,
            None => 0.5,
        };
        cloud.push(Point::new(finite_position(x, y, z, line_no)?, reflectance));
        read_so_far += 1;
    }
    match points {
        Some(expected) if in_data && read_so_far == expected => Ok(cloud),
        Some(expected) if in_data => Err(IoFormatError::Parse {
            line: 0,
            message: format!("expected {expected} points, found {read_so_far}"),
        }),
        _ => Err(IoFormatError::Parse {
            line: 0,
            message: "missing DATA ascii section".into(),
        }),
    }
}

/// The position `(x, y, z)`, or a parse error at `line` when a
/// coordinate is NaN or infinite: such a point has no range or bearing
/// the range image and the voxelizer can bin.
fn finite_position(x: f64, y: f64, z: f64, line: usize) -> Result<Vec3, IoFormatError> {
    if x.is_finite() && y.is_finite() && z.is_finite() {
        Ok(Vec3::new(x, y, z))
    } else {
        Err(IoFormatError::Parse {
            line,
            message: "non-finite coordinate".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn sample() -> PointCloud {
        (0..25)
            .map(|i| {
                Point::new(
                    Vec3::new(i as f64 * 0.5, -3.0 + i as f64 * 0.1, 0.25),
                    (i % 10) as f32 / 10.0,
                )
            })
            .collect()
    }

    #[test]
    fn xyz_round_trip() {
        let cloud = sample();
        let mut buf = Vec::new();
        write_xyz(&cloud, &mut buf).unwrap();
        let back = read_xyz(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.len(), cloud.len());
        for (a, b) in cloud.iter().zip(back.iter()) {
            assert!((a.position - b.position).norm() < 1e-9);
            assert!((a.reflectance - b.reflectance).abs() < 1e-6);
        }
    }

    #[test]
    fn xyz_accepts_comments_and_three_fields() {
        let text = "# header comment\n1 2 3\n\n4 5 6 0.9\n";
        let cloud = read_xyz(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(cloud.len(), 2);
        assert_eq!(cloud.as_slice()[0].reflectance, 0.5);
        assert_eq!(cloud.as_slice()[1].reflectance, 0.9);
    }

    #[test]
    fn xyz_rejects_malformed_lines() {
        for bad in ["1 2", "1 2 3 4 5", "a b c", "1 2 nan"] {
            let err = read_xyz(BufReader::new(bad.as_bytes())).unwrap_err();
            assert!(
                matches!(err, IoFormatError::Parse { line: 1, .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn ply_round_trip() {
        let cloud = sample();
        let mut buf = Vec::new();
        write_ply(&cloud, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("ply\nformat ascii 1.0"));
        assert!(text.contains("element vertex 25"));
        let back = read_ply(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.len(), cloud.len());
        for (a, b) in cloud.iter().zip(back.iter()) {
            // f32 write precision.
            assert!((a.position - b.position).norm() < 1e-4);
        }
    }

    #[test]
    fn ply_ignores_extra_properties() {
        let text = "ply\nformat ascii 1.0\nelement vertex 1\n\
                    property float x\nproperty float y\nproperty float z\n\
                    property float nx\nend_header\n1 2 3 9\n";
        let cloud = read_ply(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(cloud.len(), 1);
        assert_eq!(cloud.as_slice()[0].position, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(cloud.as_slice()[0].reflectance, 0.5);
    }

    #[test]
    fn ply_rejects_binary_and_truncation() {
        let binary = "ply\nformat binary_little_endian 1.0\nend_header\n";
        assert!(read_ply(BufReader::new(binary.as_bytes())).is_err());
        let truncated = "ply\nformat ascii 1.0\nelement vertex 2\n\
                         property float x\nproperty float y\nproperty float z\n\
                         end_header\n1 2 3\n";
        let err = read_ply(BufReader::new(truncated.as_bytes())).unwrap_err();
        assert!(matches!(err, IoFormatError::Parse { .. }));
        let not_ply = "obj\n";
        assert!(read_ply(BufReader::new(not_ply.as_bytes())).is_err());
    }

    #[test]
    fn ply_rejects_non_finite_coordinates() {
        for (x, y, z) in [("nan", "2", "3"), ("1", "inf", "3"), ("1", "2", "-inf")] {
            let text = format!(
                "ply\nformat ascii 1.0\nelement vertex 1\n\
                 property float x\nproperty float y\nproperty float z\n\
                 end_header\n{x} {y} {z}\n"
            );
            let err = read_ply(BufReader::new(text.as_bytes())).unwrap_err();
            assert!(
                matches!(&err, IoFormatError::Parse { message, .. } if message == "non-finite coordinate"),
                "{x} {y} {z}: {err}"
            );
        }
    }

    #[test]
    fn pcd_round_trip() {
        let cloud = sample();
        let mut buf = Vec::new();
        write_pcd(&cloud, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("FIELDS x y z intensity"));
        assert!(text.contains("POINTS 25"));
        let back = read_pcd(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.len(), cloud.len());
        for (a, b) in cloud.iter().zip(back.iter()) {
            assert!((a.position - b.position).norm() < 1e-4);
            assert!((a.reflectance - b.reflectance).abs() < 1e-6);
        }
    }

    #[test]
    fn pcd_rejects_binary_and_count_mismatch() {
        let binary = "VERSION 0.7\nFIELDS x y z\nPOINTS 1\nDATA binary\n".replace("\\n", "\n");
        assert!(read_pcd(BufReader::new(binary.as_bytes())).is_err());
        let short = "FIELDS x y z\nPOINTS 2\nDATA ascii\n1 2 3\n".replace("\\n", "\n");
        let err = read_pcd(BufReader::new(short.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("expected 2 points"));
        let no_data = "FIELDS x y z\nPOINTS 1\n".replace("\\n", "\n");
        assert!(read_pcd(BufReader::new(no_data.as_bytes())).is_err());
    }

    #[test]
    fn pcd_rejects_non_finite_coordinates() {
        for (x, y, z) in [("nan", "2", "3"), ("1", "inf", "3"), ("1", "2", "-inf")] {
            let text = format!("FIELDS x y z\nPOINTS 1\nDATA ascii\n{x} {y} {z}\n");
            let err = read_pcd(BufReader::new(text.as_bytes())).unwrap_err();
            assert!(
                matches!(&err, IoFormatError::Parse { message, .. } if message == "non-finite coordinate"),
                "{x} {y} {z}: {err}"
            );
        }
    }

    #[test]
    fn pcd_without_intensity_defaults() {
        let text = "FIELDS x y z\nPOINTS 1\nDATA ascii\n1 2 3\n".replace("\\n", "\n");
        let cloud = read_pcd(BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(cloud.as_slice()[0].reflectance, 0.5);
        assert_eq!(cloud.as_slice()[0].position, Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn errors_display_and_chain() {
        let e = IoFormatError::Parse {
            line: 3,
            message: "boom".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let io = IoFormatError::from(std::io::Error::other("x"));
        assert!(std::error::Error::source(&io).is_some());
    }

    #[test]
    fn empty_cloud_round_trips() {
        let mut buf = Vec::new();
        write_ply(&PointCloud::new(), &mut buf).unwrap();
        assert!(read_ply(BufReader::new(buf.as_slice())).unwrap().is_empty());
        let mut buf2 = Vec::new();
        write_xyz(&PointCloud::new(), &mut buf2).unwrap();
        assert!(read_xyz(BufReader::new(buf2.as_slice()))
            .unwrap()
            .is_empty());
    }
}
